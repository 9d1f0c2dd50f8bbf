// Clock injection: the experiment service needs wall time for two
// things only — stamping job lifecycle events and arming per-job
// deadlines. Both go through the Clock interface so tests substitute a
// manual clock and drive timeouts deterministically, and so the
// determinism analyzer can confine real clock reads to this one file
// (package serve is in the analyzer's scope; see
// internal/analysis/determinism).
package serve

import (
	"time"

	"mallocsim/internal/store"
)

// Clock is the store's clock (Now, used here for job timestamps and
// queue latency metrics) plus After. The production implementation is
// RealClock; tests use a fake whose After channels fire on demand.
type Clock interface {
	store.Clock
	// After returns a channel that delivers one value after d elapses,
	// like time.After. Used to arm per-job deadlines.
	After(d time.Duration) <-chan time.Time
}

// RealClock is the wall clock.
type RealClock struct{ store.RealClock }

// After implements Clock.
func (RealClock) After(d time.Duration) <-chan time.Time { return time.After(d) }
