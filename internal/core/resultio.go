package core

import "repro/internal/boom"

// Measured-result transport for the distributed sweep fabric
// (internal/fabric): a worker ships a measure cell's Result (Session.Run)
// back as its canonical payload, which the coordinator decodes into the
// Sweep it merges. The codec is the measure artifact's — the bytes a local
// sweep writes under the cell's key — so distributed results are
// byte-identical to single-node ones by construction.

// EncodeMeasuredResult encodes a measured Result into the canonical
// measure-artifact payload.
func EncodeMeasuredResult(res *Result) ([]byte, error) {
	return encodeResultPayload(res)
}

// DecodeMeasuredResult decodes a canonical measure payload into res,
// filling everything but the identity fields (Workload, Suite,
// ConfigName, Mode) — exactly the split the artifact cache uses, so the
// caller seeds those from the cell it scheduled, and names that cell's
// config: a payload whose shape does not fit it is an error.
func DecodeMeasuredResult(payload []byte, res *Result, cfg boom.Config) error {
	return decodeResultPayload(payload, res, cfg.IntIssueSlots)
}
