package core

import "repro/internal/boom"

// Measured-result transport for the distributed sweep fabric
// (internal/fabric): a worker that finishes a measure cell ships the
// cell's canonical payload bytes back to the coordinator, which decodes
// them into the *Result it merges into the campaign's Sweep. Reusing the
// measure artifact's cache codec — the exact bytes a local sweep would
// have written under the measure key — is what makes distributed results
// byte-identical to single-node ones by construction: there is no second
// encoding that could drift.

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
