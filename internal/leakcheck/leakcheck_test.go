package leakcheck

import (
	"strings"
	"testing"
	"time"
)

// TestSettle: a goroutine that outlives the grace is reported with its
// stack, one that is on its way out is waited for.
func TestSettle(t *testing.T) {
	before := len(others())
	release := make(chan struct{})
	go func() { <-release }()
	left := settle(before, 30*time.Millisecond)
	if len(left) != before+1 || !strings.Contains(strings.Join(left, "\n"), "TestSettle") {
		t.Errorf("a blocked goroutine went unnoticed: %d left, %d before\n%s", len(left), before, strings.Join(left, "\n\n"))
	}
	time.AfterFunc(20*time.Millisecond, func() { close(release) })
	if left := settle(before, 5*time.Second); len(left) > before {
		t.Errorf("a goroutine that exits within the grace was reported as a leak:\n%s", strings.Join(left, "\n\n"))
	}
}
