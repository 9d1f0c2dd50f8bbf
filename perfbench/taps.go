package main

import (
	"errors"

	"mallocsim/internal/alloc"
	"mallocsim/internal/store"
	"mallocsim/internal/trace"
)

// allocTap times every call into an allocator. Like obs.Instrumented it
// always offers MallocSite and MallocLocal, forwarding each to the
// wrapped allocator's own entry point when it has one and to Malloc
// otherwise, and it unwraps, so alloc.HintAware and the workload
// driver's dispatch see the same allocator they would see unwrapped.
type allocTap struct {
	inner alloc.Allocator
	site  alloc.SiteAllocator
	hint  alloc.LocalityHinter
	tr    *tracer
	ops   uint64
}

func newAllocTap(a alloc.Allocator, tr *tracer) *allocTap {
	t := &allocTap{inner: a, tr: tr}
	t.site, _ = a.(alloc.SiteAllocator)
	t.hint, _ = a.(alloc.LocalityHinter)
	return t
}

// Unwrap returns the timed allocator.
func (t *allocTap) Unwrap() alloc.Allocator { return t.inner }

func (t *allocTap) Name() string { return t.inner.Name() }

func (t *allocTap) Malloc(n uint32) (uint64, error) {
	t.tr.begin(layerAlloc)
	addr, err := t.inner.Malloc(n)
	t.tr.end()
	t.ops++
	return addr, err
}

func (t *allocTap) MallocSite(n uint32, site uint32) (uint64, error) {
	if t.site == nil {
		return t.Malloc(n)
	}
	t.tr.begin(layerAlloc)
	addr, err := t.site.MallocSite(n, site)
	t.tr.end()
	t.ops++
	return addr, err
}

func (t *allocTap) MallocLocal(n uint32, locality uint32) (uint64, error) {
	if t.hint == nil {
		return t.Malloc(n)
	}
	t.tr.begin(layerAlloc)
	addr, err := t.hint.MallocLocal(n, locality)
	t.tr.end()
	t.ops++
	return addr, err
}

func (t *allocTap) Free(addr uint64) error {
	t.tr.begin(layerAlloc)
	err := t.inner.Free(addr)
	t.tr.end()
	t.ops++
	return err
}

// scanSteps returns the freelist nodes the allocator has examined, or 0
// for an allocator that does not search freelists.
func (t *allocTap) scanSteps() uint64 {
	if s, ok := t.inner.(alloc.Scanner); ok {
		return s.ScanSteps()
	}
	return 0
}

// sinkTap times every delivery into one reference sink. It is itself a
// trace.BlockSink, so mem.Memory still hands it whole ring flushes.
type sinkTap struct {
	inner  trace.BlockSink
	tr     *tracer
	layer  layer
	blocks uint64
	rows   uint64
}

func (s *sinkTap) Ref(r trace.Ref) {
	s.tr.begin(s.layer)
	s.inner.Ref(r)
	s.tr.end()
}

func (s *sinkTap) Block(b *trace.Block) {
	s.tr.begin(s.layer)
	s.inner.Block(b)
	s.tr.end()
	s.blocks++
	s.rows += uint64(b.Len())
}

// storeTap times the serve layer's calls into its durable store.
type storeTap struct {
	inner store.Store
	log   *spanLog
}

func (s storeTap) Put(hash string, data []byte, meta store.Meta) error {
	start := now()
	err := s.inner.Put(hash, data, meta)
	s.log.add("store.put", hash, -1, start, now())
	return err
}

// Get records a span named after the outcome: store.get.hit,
// store.get.miss or store.get.error.
func (s storeTap) Get(hash string) ([]byte, error) {
	start := now()
	data, err := s.inner.Get(hash)
	end := now()
	name := "store.get.hit"
	if errors.Is(err, store.ErrNotFound) {
		name = "store.get.miss"
	} else if err != nil {
		name = "store.get.error"
	}
	s.log.add(name, hash, -1, start, end)
	return data, err
}

func (s storeTap) Stat(hash string) (store.Entry, error) { return s.inner.Stat(hash) }
func (s storeTap) List() []store.Entry                   { return s.inner.List() }
func (s storeTap) Len() int                              { return s.inner.Len() }
func (s storeTap) Bytes() int64                          { return s.inner.Bytes() }
