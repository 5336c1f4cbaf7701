package core

// SetCheckInvariants sets the checkInvariants seam for the external test
// package, which can reach serve.EncodeSweep.
func SetCheckInvariants(on bool) { checkInvariants = on }
