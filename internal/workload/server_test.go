package workload

import (
	"context"
	"errors"
	"testing"

	"mallocsim/internal/alloc"
	"mallocsim/internal/cache"
	"mallocsim/internal/cost"
	"mallocsim/internal/mem"
	"mallocsim/internal/trace"
)

func runServer(t *testing.T, allocName string, scale, seed uint64) (Stats, *trace.Recorder) {
	t.Helper()
	rec := &trace.Recorder{}
	m := mem.New(rec, &cost.Meter{})
	a, err := alloc.New(allocName, m)
	if err != nil {
		t.Fatal(err)
	}
	scen, ok := ServerByName("server")
	if !ok {
		t.Fatal("no server scenario in the catalog")
	}
	stats, err := RunServerContext(context.Background(), m, a, ServerRunConfig{Scenario: scen, Scale: scale, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	m.Flush()
	return stats, rec
}

// TestServerDeterminism: identical configurations must replay the exact
// same reference stream — addresses, kinds AND thread stamps — and the
// same stats; a different seed must diverge.
func TestServerDeterminism(t *testing.T) {
	s1, r1 := runServer(t, "bsd", 2048, 7)
	s2, r2 := runServer(t, "bsd", 2048, 7)
	if statKey(s1) != statKey(s2) || s1.Handoffs != s2.Handoffs {
		t.Errorf("stats differ across identical runs: %+v vs %+v", s1, s2)
	}
	if len(r1.Refs) != len(r2.Refs) {
		t.Fatalf("trace lengths differ: %d vs %d", len(r1.Refs), len(r2.Refs))
	}
	for i := range r1.Refs {
		if r1.Refs[i] != r2.Refs[i] {
			t.Fatalf("ref %d differs: %+v vs %+v", i, r1.Refs[i], r2.Refs[i])
		}
	}
	s3, _ := runServer(t, "bsd", 2048, 8)
	if statKey(s3) == statKey(s1) {
		t.Error("different seeds produced identical stats")
	}
}

// TestServerShape: the scenario must actually be server-shaped —
// multiple thread identities in the stream, producer/consumer handoffs,
// conservation of objects, and no leaked handoff queues at exit.
func TestServerShape(t *testing.T) {
	stats, rec := runServer(t, "firstfit", 2048, 3)
	if stats.Allocs != stats.Frees+stats.FinalLive {
		t.Errorf("object conservation violated: %d allocs, %d frees, %d live",
			stats.Allocs, stats.Frees, stats.FinalLive)
	}
	if stats.Handoffs == 0 {
		t.Error("no cross-thread handoffs occurred")
	}
	if stats.Handoffs >= stats.Frees {
		t.Errorf("handoffs %d not a proper subset of frees %d", stats.Handoffs, stats.Frees)
	}
	tids := map[uint8]bool{}
	for _, r := range rec.Refs {
		tids[r.Tid] = true
	}
	scen, _ := ServerByName("server")
	if len(tids) != scen.Threads {
		t.Errorf("stream carries %d distinct tids, want %d", len(tids), scen.Threads)
	}
}

// TestServerSharingSignal: feeding the server stream to the sharing
// attributor must yield both true and false sharing events — the signal
// the server experiment tables are built on — and stay byte-identical
// across batched and unbatched delivery.
func TestServerSharingSignal(t *testing.T) {
	run := func(batch int) (Stats, cache.SharingReport) {
		s := cache.NewSharing(cache.SharingConfig{})
		m := mem.New(s, &cost.Meter{})
		m.SetBatching(batch)
		a, err := alloc.New("bsd", m)
		if err != nil {
			t.Fatal(err)
		}
		scen, _ := ServerByName("server")
		stats, err := RunServerContext(context.Background(), m, a, ServerRunConfig{Scenario: scen, Scale: 1024, Seed: 5})
		if err != nil {
			t.Fatal(err)
		}
		m.Flush()
		return stats, s.Report()
	}
	_, rep := run(0)
	if rep.True == 0 {
		t.Error("server run produced no true sharing (sessions/globals/handoffs should ping-pong)")
	}
	if rep.False == 0 {
		t.Error("server run produced no false sharing under a shared-heap allocator")
	}
	if rep.PingLines == 0 {
		t.Error("no ping-pong lines recorded")
	}
	_, rep2 := run(-1) // unbatched per-Ref delivery
	if rep.True != rep2.True || rep.False != rep2.False || rep.PingLines != rep2.PingLines {
		t.Errorf("sharing report depends on delivery tier: batched %+v vs unbatched %+v", rep, rep2)
	}
}

// TestServerCancellation: a canceled context aborts the run through the
// amortized polls (burst loop, death drains, inbox drains) instead of
// running to completion.
func TestServerCancellation(t *testing.T) {
	m := mem.New(&trace.Counter{}, &cost.Meter{})
	a, err := alloc.New("firstfit", m)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	scen, _ := ServerByName("server")
	_, err = RunServerContext(ctx, m, a, ServerRunConfig{Scenario: scen, Scale: 64, Seed: 1})
	if err == nil {
		t.Fatal("canceled run completed without error")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error does not wrap context.Canceled: %v", err)
	}
}

// TestServerThreadBounds: the attributor's holder masks cap threads at
// 63, and a server needs at least a producer and a consumer.
func TestServerThreadBounds(t *testing.T) {
	m := mem.New(&trace.Counter{}, &cost.Meter{})
	a, err := alloc.New("firstfit", m)
	if err != nil {
		t.Fatal(err)
	}
	for _, threads := range []int{0, 1, 64, 200} {
		scen, _ := ServerByName("server")
		scen.Threads = threads
		if _, err := RunServerContext(context.Background(), m, a, ServerRunConfig{Scenario: scen, Scale: 1024, Seed: 1}); err == nil {
			t.Errorf("Threads=%d accepted, want error", threads)
		}
	}
}
