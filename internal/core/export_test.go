package core

// CheckCarriedOrder exposes checkCarriedOrder to the external test
// package, which can compile the shipped scenarios without an import
// cycle.
var CheckCarriedOrder = checkCarriedOrder
