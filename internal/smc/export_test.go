package smc

// The external tests' handles on this package's test fixtures.
var (
	TestKey  = testKey
	ServedBy = servedBy
	Enc      = enc
	EncVec   = encVec
	EncBits  = encBits
)
