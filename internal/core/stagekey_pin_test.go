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
		"65a59a7f4d3d077608e7a34646bf62a9c8be58616956d4a8b88bfdf3f4794df3",
		"9d01f491cf016af38479199f255ad13afddeae0f6d7347da8ef34504b5008241",
		"2e493aaa092ce6ca79d2e0d43acef10ecd7fd33b6aba029f456ddb49f9d9accc",
		"ccdbb9f8e6fa82cd8b8753e5b99de9ad4f08b8c4984cd0674d2367e43715fad5",
	},
	"sha/MediumBOOM/recommended": {
		"050ccde9eb302ef3103ffd69bb845689fbfe290309d5ab8217447f728f86ef7c",
		"20bed1e532ae441912148becbbae9e40eec629bdf9b777371c0db5da07275ec5",
		"007e7e685360ea6e8c167a2921cb042671f93a59ee04ef7a5111a3000a6a9fb1",
		"7a85ba5ca3da206b37b3bd2406187059fdb3258f29e4c934c66a6fbe81d90705",
		"5d194bd6e7618e29df64538f294e51dacfeac9ec150b687f3dd735865c729850",
		"ccdbb9f8e6fa82cd8b8753e5b99de9ad4f08b8c4984cd0674d2367e43715fad5",
	},
	"sha/MegaBOOM/zero": {
		"d89d898911ff66c9104c49f5c72ab74b9b0859f64a224c7526578d9e205be1bd",
		"c0b135d5ab1047b877d5e2adf98c2b4680a620d8b98f89b47956e3d243ded4b0",
		"65a59a7f4d3d077608e7a34646bf62a9c8be58616956d4a8b88bfdf3f4794df3",
		"26789235511c9f40d36bd68321289d0af75c96328db383639db7ffc3bd2bc2fc",
		"412357fb8b237847b9d83234179c0fd055b2019969a5962317a59b364e3f3459",
		"3a56e2aef06c3a8b284feebf0d13c292d416a303496f9b338bad4fc874d15ceb",
	},
	"sha/MegaBOOM/recommended": {
		"050ccde9eb302ef3103ffd69bb845689fbfe290309d5ab8217447f728f86ef7c",
		"20bed1e532ae441912148becbbae9e40eec629bdf9b777371c0db5da07275ec5",
		"007e7e685360ea6e8c167a2921cb042671f93a59ee04ef7a5111a3000a6a9fb1",
		"626c0b94c343822bf4ab0a2145b0cced982de6bcc6be92318b1b1819c1fbb479",
		"620805fa231f8eba559c43ffcc8cfc5e733c66270a36ab28e432dca2d5e8bed1",
		"3a56e2aef06c3a8b284feebf0d13c292d416a303496f9b338bad4fc874d15ceb",
	},
	"qsort/MediumBOOM/zero": {
		"80854e768fbeaecb3bdd973d579c6dbc7a68c2c9a33fdd3e26050e178f094b76",
		"6ba34f34d2db2b4fe9fb38486ab32ab8459bfe61f8236e0d500cd63f3301d474",
		"957fcb42b745b5c2d56de8713d27d06b229e007e5474f631f49a67da0a5b3f2d",
		"8d67942dd10446b99978320dd40954582f8cd092e15dc8b987428858898fc62c",
		"b9b2dd91b092c9a96a99b9e63a4d1373f69cf2c6e6623a0e91c59a14d2919f39",
		"ac35ce11ac8a0af25e3adba7fd1c3b3172a8abc125ae049f80a8e2a4c38c26b3",
	},
	"qsort/MediumBOOM/recommended": {
		"5508312df9b2bc036371ea9208dfc3e2587484c31b8351d912ff4cb011d58f4f",
		"e6681d03e9a9f88a53341ea4fbad3d979d2895859dfb8fd3a0002cbf5296d2ac",
		"1f3a275a01637f012ecaf88490ce256dcfdd497414f1cf4fd43b54d57edbbd19",
		"a77d70a1c89514a588dfcae5e594cb11fd4a5e52d1192c5f645a2730f0277a03",
		"86d5f3c09340822bbb45d6aeccbb077c2745857e4520a81e78262dbb2cf01d70",
		"ac35ce11ac8a0af25e3adba7fd1c3b3172a8abc125ae049f80a8e2a4c38c26b3",
	},
	"qsort/MegaBOOM/zero": {
		"80854e768fbeaecb3bdd973d579c6dbc7a68c2c9a33fdd3e26050e178f094b76",
		"6ba34f34d2db2b4fe9fb38486ab32ab8459bfe61f8236e0d500cd63f3301d474",
		"957fcb42b745b5c2d56de8713d27d06b229e007e5474f631f49a67da0a5b3f2d",
		"a419a71fa98ef2f1cdf546431025b7121a11021a48554502c9d21e137dc0b8cc",
		"dac5dd38e4ef86fef740f281b4481fe719a6d33c0867623241ff7288ee80b1f7",
		"70b9583d3617374f3a4502409425659a8c1dbd95aabce38811417f0f62c731be",
	},
	"qsort/MegaBOOM/recommended": {
		"5508312df9b2bc036371ea9208dfc3e2587484c31b8351d912ff4cb011d58f4f",
		"e6681d03e9a9f88a53341ea4fbad3d979d2895859dfb8fd3a0002cbf5296d2ac",
		"1f3a275a01637f012ecaf88490ce256dcfdd497414f1cf4fd43b54d57edbbd19",
		"c78ea81dc0357a8f3e6591e3d71148f4eb91a3b9a340a77f8197e4240cf83b72",
		"1f67e6eadf281a8860930b052fb8faf2c807982ce76d46dc74fcb50a8490bee7",
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
