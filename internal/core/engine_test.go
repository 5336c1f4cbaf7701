package core

import (
	"go/ast"
	"go/parser"
	"go/token"
	"net/http"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/faultinject"
)

// TestEngineValidate: the one validator rejects every out-of-range value
// and every knob that needs a cache directory it does not have, naming
// the flag spelling of the field; the zero value and a fully-set Engine
// pass. (engineflags' TestValidateRejections and serve's and fabric's
// constructor tests exercise the same rules through each carrier.)
func TestEngineValidate(t *testing.T) {
	bad := []struct {
		e    Engine
		want string
	}{
		{Engine{Parallelism: -4}, "-j -4"},
		{Engine{Retries: -1}, "-retries"},
		{Engine{StageTimeout: -time.Second}, "-stage-timeout"},
		{Engine{RemoteConnect: -time.Second}, "-remote-connect-timeout"},
		{Engine{RemoteTimeout: -time.Second}, "-remote-timeout"},
		{Engine{CacheVerify: true}, "-cache-verify requires -cache"},
		{Engine{RemoteStore: "http://store:9000"}, "-remote-store requires -cache"},
		{Engine{Chaos: "not-a-plan"}, "-chaos"},
	}
	for _, tc := range bad {
		err := tc.e.Validate()
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%+v: error %v, want one naming %q", tc.e, err, tc.want)
		}
		if _, oerr := tc.e.Options(); oerr == nil {
			t.Errorf("%+v: Options must refuse an Engine that does not validate", tc.e)
		}
	}
	good := []Engine{
		{},
		{
			CacheDir: t.TempDir(), CacheVerify: true, RemoteStore: "http://store:9000",
			RemoteConnect: time.Second, RemoteTimeout: time.Second,
			KeepGoing: true, Retries: 2, StageTimeout: time.Second, Parallelism: 2,
			Chaos: "7:core.measure/sha/*=error",
		},
	}
	for _, e := range good {
		if err := e.Validate(); err != nil {
			t.Errorf("%+v: %v", e, err)
		}
	}
	if opts, err := (Engine{}).Options(); err != nil || len(opts) != 0 {
		t.Errorf("zero Engine built %d options (err %v), want none", len(opts), err)
	}
}

// TestEveryEngineFieldReachesTheLadder: Options (with the Injector and
// HTTPClient builders it calls) is the only place an Engine turns into
// Runner options, so a field none of them reads is a knob every carrier
// accepts and no Runner honours — the "one knob threaded through five
// layers by hand" class of mistake. The check is on the source: most
// knobs surface only as unexported Runner state or inside an HTTP
// transport's dialer, where a behavioural probe cannot see them.
func TestEveryEngineFieldReachesTheLadder(t *testing.T) {
	file, err := parser.ParseFile(token.NewFileSet(), "engine.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	read := map[string]bool{}
	for _, d := range file.Decls {
		fn, ok := d.(*ast.FuncDecl)
		if !ok || fn.Recv == nil || len(fn.Recv.List[0].Names) != 1 {
			continue
		}
		if id, ok := fn.Recv.List[0].Type.(*ast.Ident); !ok || id.Name != "Engine" {
			continue
		}
		if fn.Name.Name != "Options" && fn.Name.Name != "Injector" && fn.Name.Name != "HTTPClient" {
			continue
		}
		recv := fn.Recv.List[0].Names[0].Name
		ast.Inspect(fn.Body, func(n ast.Node) bool {
			if sel, ok := n.(*ast.SelectorExpr); ok {
				if id, ok := sel.X.(*ast.Ident); ok && id.Name == recv {
					read[sel.Sel.Name] = true
				}
			}
			return true
		})
	}
	typ := reflect.TypeOf(Engine{})
	for i := 0; i < typ.NumField(); i++ {
		if name := typ.Field(i).Name; !read[name] {
			t.Errorf("Engine.%s is read by none of Options/Injector/HTTPClient: add it to the ladder", name)
		}
	}
}

// TestEngineHTTPClient: the remote-tier client carries the split
// connect/response-header timeouts (no overall timeout — long polls must
// survive), zero durations mean the defaults, and an injector arms the
// network boundary through a faultinject.Transport with the caller's peer
// scope.
func TestEngineHTTPClient(t *testing.T) {
	hc := Engine{RemoteConnect: time.Second, RemoteTimeout: 2 * time.Second}.HTTPClient(nil, "")
	if hc.Timeout != 0 {
		t.Errorf("overall client timeout %s; must be 0 so long polls survive", hc.Timeout)
	}
	if got := hc.Transport.(*http.Transport).ResponseHeaderTimeout; got != 2*time.Second {
		t.Errorf("response-header timeout %s, want the configured 2s", got)
	}
	hc = Engine{}.HTTPClient(nil, "")
	if got := hc.Transport.(*http.Transport).ResponseHeaderTimeout; got != DefaultRemoteTimeout {
		t.Errorf("zero RemoteTimeout built %s, want the %s default", got, DefaultRemoteTimeout)
	}

	e := Engine{Chaos: "7:fabric.report/w-1=error"}
	inj, err := e.Injector()
	if err != nil {
		t.Fatal(err)
	}
	tr, ok := e.HTTPClient(inj, "w-1").Transport.(*faultinject.Transport)
	if !ok {
		t.Fatal("an injector must wrap the remote client in a faultinject.Transport")
	}
	if tr.Peer != "w-1" || tr.Injector != inj {
		t.Errorf("transport wiring: peer %q injector match %v", tr.Peer, tr.Injector == inj)
	}
}
