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
		"51c0d1ac37ba00a7c40c82edb16aff9eca723220ee0a970ec0e4371fcd7016d0",
		"04cc364bbced2d0783a5ad5a642a54ca8f91eaa5ffb814d31d04efb2fcb2fe27",
		"e52a8a09317232ec4e0cb221964e5e6a80fdf977916585b95aa834b21e9b0b3d",
		"ccdbb9f8e6fa82cd8b8753e5b99de9ad4f08b8c4984cd0674d2367e43715fad5",
	},
	"sha/MediumBOOM/recommended": {
		"050ccde9eb302ef3103ffd69bb845689fbfe290309d5ab8217447f728f86ef7c",
		"20bed1e532ae441912148becbbae9e40eec629bdf9b777371c0db5da07275ec5",
		"7e065e13aa0e5d552851edb9087ccdb2073fd7a066eb8a5cb5e6c2e2eae8be11",
		"43cd5ed94258620bf1514e42ff85b9fff83bfc041eedf2bb1ede252dc6c70c23",
		"3d2f0d6e99ef012dddea93d4c4c03c2b5b73da116da3af164ed11f2414d6cbe1",
		"ccdbb9f8e6fa82cd8b8753e5b99de9ad4f08b8c4984cd0674d2367e43715fad5",
	},
	"sha/MegaBOOM/zero": {
		"d89d898911ff66c9104c49f5c72ab74b9b0859f64a224c7526578d9e205be1bd",
		"c0b135d5ab1047b877d5e2adf98c2b4680a620d8b98f89b47956e3d243ded4b0",
		"51c0d1ac37ba00a7c40c82edb16aff9eca723220ee0a970ec0e4371fcd7016d0",
		"136752f3090191fa6ae10a6ddac5663311a3e4779c9f11683d5865d9c734c5b6",
		"63d4f80b6a7756ff524ca1a0d3cf901bf0f5f72e283ade6cbc11e72bbdf1a7f8",
		"3a56e2aef06c3a8b284feebf0d13c292d416a303496f9b338bad4fc874d15ceb",
	},
	"sha/MegaBOOM/recommended": {
		"050ccde9eb302ef3103ffd69bb845689fbfe290309d5ab8217447f728f86ef7c",
		"20bed1e532ae441912148becbbae9e40eec629bdf9b777371c0db5da07275ec5",
		"7e065e13aa0e5d552851edb9087ccdb2073fd7a066eb8a5cb5e6c2e2eae8be11",
		"2b9328321b055213a69a52444e0a0df436bb587cf72ca8886d44c4b034662c51",
		"5fe2c002fd34134002c9459e6510e67aca284c1180d3f6e21d9eed6baaa6b76c",
		"3a56e2aef06c3a8b284feebf0d13c292d416a303496f9b338bad4fc874d15ceb",
	},
	"qsort/MediumBOOM/zero": {
		"80854e768fbeaecb3bdd973d579c6dbc7a68c2c9a33fdd3e26050e178f094b76",
		"6ba34f34d2db2b4fe9fb38486ab32ab8459bfe61f8236e0d500cd63f3301d474",
		"49c4c9f15b784724ebc87b33ad6a60fa2329dc05a0beb627d5e916854f3baf54",
		"54a8117e1216733d67078a577706de4c267ea2d302265522f5e49f949233242e",
		"8d5ec7a3f0bece17b06ba0ee9593f281df5168fff2ca3db1e2b392395c33b05c",
		"ac35ce11ac8a0af25e3adba7fd1c3b3172a8abc125ae049f80a8e2a4c38c26b3",
	},
	"qsort/MediumBOOM/recommended": {
		"5508312df9b2bc036371ea9208dfc3e2587484c31b8351d912ff4cb011d58f4f",
		"e6681d03e9a9f88a53341ea4fbad3d979d2895859dfb8fd3a0002cbf5296d2ac",
		"1e199e8a966bef0d6f03d23595153d0e835b97d17d1710b713f4bb580987af42",
		"853679e10521cedbb6c155fe138bee5dd5fc095ea5c66e496030d07422e64ffa",
		"8ee48cd41ad41d38e220adf6380d21df6f47531b8e4539e9226eeedd5957dfba",
		"ac35ce11ac8a0af25e3adba7fd1c3b3172a8abc125ae049f80a8e2a4c38c26b3",
	},
	"qsort/MegaBOOM/zero": {
		"80854e768fbeaecb3bdd973d579c6dbc7a68c2c9a33fdd3e26050e178f094b76",
		"6ba34f34d2db2b4fe9fb38486ab32ab8459bfe61f8236e0d500cd63f3301d474",
		"49c4c9f15b784724ebc87b33ad6a60fa2329dc05a0beb627d5e916854f3baf54",
		"2f3bb1a9c8bab5ec985cb6f6d95f39a04e27573b3e4873a18260035919d46396",
		"0b5fddec1f24191959c4dd8de30edb6f052dcfc543d93a26efb487c657cf6c08",
		"70b9583d3617374f3a4502409425659a8c1dbd95aabce38811417f0f62c731be",
	},
	"qsort/MegaBOOM/recommended": {
		"5508312df9b2bc036371ea9208dfc3e2587484c31b8351d912ff4cb011d58f4f",
		"e6681d03e9a9f88a53341ea4fbad3d979d2895859dfb8fd3a0002cbf5296d2ac",
		"1e199e8a966bef0d6f03d23595153d0e835b97d17d1710b713f4bb580987af42",
		"f110b0ac140ddc3b11de80c34bc4083726d128069a066823043a27e52d5f0ed8",
		"774f248a1e59f296cdc25ff1a3d01d5a830cdeeb31a62242d811e95405f4eb42",
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
