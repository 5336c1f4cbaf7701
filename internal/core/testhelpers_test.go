package core

import (
	"repro/internal/boom"
	"repro/internal/ckpt"
	"repro/internal/workloads"
)

// tcamp builds a tiny-scale Campaign — the shape nearly every core test
// sweeps. Kept here so call sites stay as close to the old
// (names, configs) form as possible.
func tcamp(names []string, cfgs []boom.Config) Campaign {
	return NewCampaign(names, cfgs, workloads.ScaleTiny)
}

// shellsOf is cks as the selection places them: InstRet, Interval and
// Weight only, ready for decodeCkptPayload to fill.
func shellsOf(cks []*ckpt.Checkpoint) []*ckpt.Checkpoint {
	out := make([]*ckpt.Checkpoint, len(cks))
	for i, k := range cks {
		out[i] = &ckpt.Checkpoint{InstRet: k.InstRet, Interval: k.Interval, Weight: k.Weight}
	}
	return out
}
