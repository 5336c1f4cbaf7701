package serve

import (
	"testing"

	"repro/internal/leakcheck"
)

// TestMain fails the suite if a server, sweep or poll goroutine outlives it.
func TestMain(m *testing.M) { leakcheck.Main(m) }
