package core

import (
	"testing"

	"repro/internal/boom"
	"repro/internal/sampling"
	"repro/internal/workloads"
)

// pinnedStageKeys are the hex fingerprints of every stage key of sha and
// qsort × MediumBOOM and MegaBOOM × {zero spec, sampling.Recommended()}
// at ScaleTiny, in the order bbv, select, checkpoint, measure, tick, full.
// A stage key names an entry on disk, so a drifted hex silently orphans
// every cached artifact of that stage: if one of these fails, restore the
// encoding; the values move only with a deliberate schema bump.
var pinnedStageKeys = map[string][6]string{
	"sha/MediumBOOM/zero": {
		"d89d898911ff66c9104c49f5c72ab74b9b0859f64a224c7526578d9e205be1bd",
		"c0b135d5ab1047b877d5e2adf98c2b4680a620d8b98f89b47956e3d243ded4b0",
		"c3036baabaaac4ff1baf98c4cdc95e86c5cdb30e9cf851ffc5d67282cb1af51c",
		"0e20d6873a918c60260f2dfc566085580724bb9ebc461cf20eaacbd01f4b1ef0",
		"9e54f967a14599e2bcfda1681d9ff5003ba8de839c5c10e7b2ba878f29cfd274",
		"ccdbb9f8e6fa82cd8b8753e5b99de9ad4f08b8c4984cd0674d2367e43715fad5",
	},
	"sha/MediumBOOM/recommended": {
		"050ccde9eb302ef3103ffd69bb845689fbfe290309d5ab8217447f728f86ef7c",
		"20bed1e532ae441912148becbbae9e40eec629bdf9b777371c0db5da07275ec5",
		"ec5e715b80e08f0c37d49530bf4aa08b8cb581082fd1cd3da85bebae91521808",
		"1acd69a028ccb4203cafa3447c64a164a0a1e9394a05e13a254aac5bb9982450",
		"bf55164e9c96f15fea8a574a2f1bb2829bf895f3ddaef987ad0c9f097a45e87c",
		"ccdbb9f8e6fa82cd8b8753e5b99de9ad4f08b8c4984cd0674d2367e43715fad5",
	},
	"sha/MegaBOOM/zero": {
		"d89d898911ff66c9104c49f5c72ab74b9b0859f64a224c7526578d9e205be1bd",
		"c0b135d5ab1047b877d5e2adf98c2b4680a620d8b98f89b47956e3d243ded4b0",
		"c3036baabaaac4ff1baf98c4cdc95e86c5cdb30e9cf851ffc5d67282cb1af51c",
		"bd1338c00855028122983c9b7699f142622d8c4f686be76af5ca879df2ad0ee4",
		"f6e92819380f231a41e88b7cc1f8cc89725f0108d0034ddc4cae7e3a53855431",
		"3a56e2aef06c3a8b284feebf0d13c292d416a303496f9b338bad4fc874d15ceb",
	},
	"sha/MegaBOOM/recommended": {
		"050ccde9eb302ef3103ffd69bb845689fbfe290309d5ab8217447f728f86ef7c",
		"20bed1e532ae441912148becbbae9e40eec629bdf9b777371c0db5da07275ec5",
		"ec5e715b80e08f0c37d49530bf4aa08b8cb581082fd1cd3da85bebae91521808",
		"9c2a673a36264af81f7f76c1a05ba5a2c113b83f1d656679b19eee8722ca5e0f",
		"4e2132e1dd60f4abe703c5459a7d5e30beb7eb4b9073babbd4152929cb40cbf5",
		"3a56e2aef06c3a8b284feebf0d13c292d416a303496f9b338bad4fc874d15ceb",
	},
	"qsort/MediumBOOM/zero": {
		"80854e768fbeaecb3bdd973d579c6dbc7a68c2c9a33fdd3e26050e178f094b76",
		"6ba34f34d2db2b4fe9fb38486ab32ab8459bfe61f8236e0d500cd63f3301d474",
		"36aeddef041837d00d0dd87266003e940e7e934c917ed0e900263c05751f39d4",
		"a664d3468449bc62ad141a3137af97393bbe6f6228a0f7ba35715c7c078bc93d",
		"6586fc85d8fe4114a01bf66b1337748a3389b1c8c483f22e16329fa1c83ab0ff",
		"ac35ce11ac8a0af25e3adba7fd1c3b3172a8abc125ae049f80a8e2a4c38c26b3",
	},
	"qsort/MediumBOOM/recommended": {
		"5508312df9b2bc036371ea9208dfc3e2587484c31b8351d912ff4cb011d58f4f",
		"e6681d03e9a9f88a53341ea4fbad3d979d2895859dfb8fd3a0002cbf5296d2ac",
		"1e4c49c38ecfb17ca43f3731798b8aba4acbee91be1173090bed1716dcd2ed6b",
		"fe08a68ca274d530de82c6bdab2033560e2d610b77c3862d7a64e8603bdccdc8",
		"61e1916c535f546d33c8c30744640465ab3a01c5736d39f48cf1f529b4bf972b",
		"ac35ce11ac8a0af25e3adba7fd1c3b3172a8abc125ae049f80a8e2a4c38c26b3",
	},
	"qsort/MegaBOOM/zero": {
		"80854e768fbeaecb3bdd973d579c6dbc7a68c2c9a33fdd3e26050e178f094b76",
		"6ba34f34d2db2b4fe9fb38486ab32ab8459bfe61f8236e0d500cd63f3301d474",
		"36aeddef041837d00d0dd87266003e940e7e934c917ed0e900263c05751f39d4",
		"0c80f6627ba80ef7465bfa9e3a99cc8f9df9abb12e63f275cedb549b8cbc4709",
		"261d775a9b022247f2886125798b2bac6fde74063a4d025e72e6edb6cce6208b",
		"70b9583d3617374f3a4502409425659a8c1dbd95aabce38811417f0f62c731be",
	},
	"qsort/MegaBOOM/recommended": {
		"5508312df9b2bc036371ea9208dfc3e2587484c31b8351d912ff4cb011d58f4f",
		"e6681d03e9a9f88a53341ea4fbad3d979d2895859dfb8fd3a0002cbf5296d2ac",
		"1e4c49c38ecfb17ca43f3731798b8aba4acbee91be1173090bed1716dcd2ed6b",
		"dd55eb69a1f78ef4d0dc5b386208e9b063b01a2a1be223d0d5056032a72ba324",
		"3d8cc7e5234f3cae0db4b5923c01d2c6ecef166d1ac1df560af4eae005b434ff",
		"70b9583d3617374f3a4502409425659a8c1dbd95aabce38811417f0f62c731be",
	},
}

func TestPinnedStageKeys(t *testing.T) {
	r := New(FlowConfigFor(workloads.ScaleTiny), WithCache(t.TempDir()))
	specs := []struct {
		name string
		spec sampling.Spec
	}{{"zero", sampling.Spec{}}, {"recommended", sampling.Recommended()}}
	for _, name := range []string{"sha", "qsort"} {
		w, err := workloads.Build(name, workloads.ScaleTiny)
		if err != nil {
			t.Fatal(err)
		}
		for _, cfg := range []boom.Config{boom.MediumBOOM(), boom.MegaBOOM()} {
			for _, s := range specs {
				id := name + "/" + cfg.Name + "/" + s.name
				k := r.profileKeys(w, s.spec)
				m := measureKey(k.ckpt.Hex(), cfg, r.fc.Lib)
				got := [6]string{k.bbv.Hex(), k.sel.Hex(), k.ckpt.Hex(), m.Hex(), tickKey(m).Hex(), fullKey(w, cfg, r.fc.Lib).Hex()}
				if want := pinnedStageKeys[id]; got != want {
					t.Errorf("%s: stage keys drifted\n got %q\nwant %q", id, got, want)
				}
			}
		}
	}
}
