package cluster

// MsgHello is the kind word that opens a worker's HELLO frame.
const MsgHello = msgHello
