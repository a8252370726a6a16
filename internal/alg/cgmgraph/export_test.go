package cgmgraph

// Splices is the Ranker's splice rule, for the external tests.
var Splices = splices

// RankerThreshold is the count of active non-tail nodes below which the
// Ranker gathers.
var RankerThreshold = rankerThreshold

// None marks a missing predecessor or successor.
const None = none
