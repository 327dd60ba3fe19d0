package smc

// The external tests' handles on this package's test fixtures.
var (
	TestKey  = testKey
	ServedBy = servedBy
	Enc      = enc
	EncVec   = encVec
	EncBits  = encBits
)

// Rounds is the requester link's count of completed round trips.
func Rounds(rq *Requester) int64 { return rq.conn.Stats().Rounds() }
