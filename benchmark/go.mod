module embsp/benchmark

go 1.22

require embsp v0.0.0

replace embsp => ../
