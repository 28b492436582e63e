package core

// CheckCarriedOrder and ReferenceConfig expose checkCarriedOrder and the
// referenceConfig fixture to the external test package, which can compile
// the shipped scenarios without an import cycle.
var (
	CheckCarriedOrder = checkCarriedOrder
	ReferenceConfig   = referenceConfig
)
