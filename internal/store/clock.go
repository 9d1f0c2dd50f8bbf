// Clock injection: the store needs wall time for exactly one thing —
// stamping index entries at Put. It goes through the Clock interface
// so tests pin timestamps and the determinism analyzer can confine
// real clock reads to this one file (package store is in the
// analyzer's scope; see internal/analysis/determinism).
package store

import "time"

// Clock supplies the Put timestamp. The production implementation is
// RealClock; tests inject a fixed or stepping clock so index documents
// are byte-reproducible.
type Clock interface {
	// Now returns the current time. Used for timestamps only (here
	// Entry.StoredAt; serve.Clock embeds this interface for job
	// timestamps) — never for anything that feeds object or report
	// content.
	Now() time.Time
}

// RealClock is the wall clock.
type RealClock struct{}

// Now implements Clock.
func (RealClock) Now() time.Time { return time.Now() }
