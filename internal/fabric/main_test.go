package fabric

import (
	"testing"

	"repro/internal/leakcheck"
)

// TestMain fails the suite if a coordinator, worker, heartbeat or server
// goroutine outlives it.
func TestMain(m *testing.M) { leakcheck.Main(m) }
