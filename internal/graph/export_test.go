package graph

// ErrBadCSR lets the external patch tests match errBadCSR.
var ErrBadCSR = errBadCSR
