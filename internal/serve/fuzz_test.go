package serve

import (
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/dse"
	"repro/internal/wire"
)

// FuzzSweepRequest drives the submission decoder — the one place bytes from
// an untrusted client become a campaign — with arbitrary bodies. It must
// never panic; whatever it refuses it refuses with a 400; and whatever it
// accepts is a campaign the engine can run unambiguously (Campaign.Validate)
// of at most dse.MaxPoints design points. Seeds: the bodies boomctl sends
// for the README's named, parametric and sampling examples, plus the shapes
// the decoder exists to refuse.
func FuzzSweepRequest(f *testing.F) {
	for _, seed := range []string{
		`{"workloads":["sha","qsort"],"configs":["medium","mega"],"scale":"tiny"}`,
		`{"base":"medium","axes":{"rob":["64","96"]}}`,
		`{"workloads":["sha"],"base":"medium","axes":{"rob":[64,96],"predictor":["tage","gshare"]},"config_overrides":{"l2-kib":1024},"scale":"tiny"}`,
		`{"workloads":["dijkstra","sha"],"configs":["medium"],"sampling":{"features":"bbv+mav","warmup":"5x"}}`,
		`{"workloads":["dijkstra"],"configs":["medium"],"sampling":{"features":"bbv+mav","warmup":"5x","interval":20000}}`,
		`{}`,
		`{"workloads":["sha"]} garbage`,
		`{"workload":["sha"]}`,
		`{"configs":["medium"],"base":"mega"}`,
		`{"axes":{"rob":[1,2,3,4,5,6,7,8,9,10,11,12,13,14,15,16,17,18,19,20,21,22,23,24,25,26,27,28,29,30,31,32,33,34,35,36,37,38,39,40,41,42,43,44,45,46,47,48,49,50,51,52,53,54,55,56,57,58,59,60,61,62,63,64,65,66,67,68,69,70],"l2-kib":[1,2,3,4,5,6,7,8,9,10,11,12,13,14,15,16,17,18,19,20,21,22,23,24,25,26,27,28,29,30,31,32,33,34,35,36,37,38,39,40,41,42,43,44,45,46,47,48,49,50,51,52,53,54,55,56,57,58,59,60,61,62,63,64,65,66,67,68,69,70]}}`,
		`{"sampling":{"warmup":"-3x"}}`,
		`[`,
		``,
	} {
		f.Add([]byte(seed))
	}
	s, err := New(Config{})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(s.Close)
	f.Fuzz(func(t *testing.T, body []byte) {
		req := httptest.NewRequest(http.MethodPost, "/v1/sweeps", strings.NewReader(string(body)))
		camp, err := s.decodeSubmit(httptest.NewRecorder(), req)
		if err != nil {
			var e *wire.Error
			if !errors.As(err, &e) || e.Status != http.StatusBadRequest {
				t.Fatalf("body %q refused with %v, want a 400", body, err)
			}
			return
		}
		if err := camp.Validate(); err != nil {
			t.Fatalf("body %q admitted a campaign that does not validate: %v", body, err)
		}
		if n := len(camp.Configs); n > dse.MaxPoints {
			t.Fatalf("body %q admitted %d design points, cap %d", body, n, dse.MaxPoints)
		}
	})
}
