package serve

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"sort"
	"time"

	"mallocsim/internal/alloc"
	"mallocsim/internal/cache"
	"mallocsim/internal/obs"
	"mallocsim/internal/paper"
	"mallocsim/internal/workload"
)

// Decoding limits: a job spec is a small configuration document, so
// anything large is hostile or corrupt.
const (
	// MaxSpecBytes bounds the request body accepted by the job handler.
	MaxSpecBytes = 64 << 10
	// MaxCaches bounds the cache configurations simulated per job; the
	// paper's matrix uses five.
	MaxCaches = 32
	// MaxCacheSize bounds each simulated cache's capacity. The tag
	// array is proportional to size/line-size, so this caps per-job
	// memory; the paper's largest cache is 256 KB.
	MaxCacheSize = 64 << 20
)

// BadRequestError marks a spec error caused by the client's input; the
// HTTP layer maps it to a 4xx status instead of a 500.
type BadRequestError struct{ msg string }

func (e *BadRequestError) Error() string { return e.msg }

func badRequestf(format string, args ...any) error {
	return &BadRequestError{msg: fmt.Sprintf(format, args...)}
}

// IsBadRequest reports whether err originated from invalid client
// input.
func IsBadRequest(err error) bool {
	var br *BadRequestError
	return errors.As(err, &br)
}

// CacheSpec is the wire form of one cache configuration.
type CacheSpec struct {
	Size            uint64 `json:"size"`
	LineSize        uint64 `json:"line_size,omitempty"`
	Assoc           int    `json:"assoc,omitempty"`
	NoWriteAllocate bool   `json:"no_write_allocate,omitempty"`
	FlushInterval   uint64 `json:"flush_interval,omitempty"`
}

func (c CacheSpec) config() cache.Config {
	return cache.Config{
		Size:            c.Size,
		LineSize:        c.LineSize,
		Assoc:           c.Assoc,
		NoWriteAllocate: c.NoWriteAllocate,
		FlushInterval:   c.FlushInterval,
	}
}

// JobSpec is one experiment submission: which synthetic program to
// drive through which allocator, at what scale, over which simulated
// memory hierarchy. The zero values of Scale, Seed and Caches select
// the paper's defaults, so {"program":"cfrac","allocator":"gnu"} is a
// complete job.
type JobSpec struct {
	Program   string      `json:"program"`
	Allocator string      `json:"allocator"`
	Scale     uint64      `json:"scale,omitempty"`
	Seed      uint64      `json:"seed,omitempty"`
	Caches    []CacheSpec `json:"caches,omitempty"`
	PageSim   bool        `json:"page_sim,omitempty"`
	// TimeoutMS overrides the server's default per-job deadline. It
	// bounds execution only and does not identify the result, so it is
	// excluded from the content hash.
	TimeoutMS uint64 `json:"timeout_ms,omitempty"`
}

// DecodeJobSpec parses a spec from JSON, rejecting unknown fields and
// trailing garbage. All errors are BadRequestErrors.
func DecodeJobSpec(r io.Reader) (*JobSpec, error) {
	dec := json.NewDecoder(io.LimitReader(r, MaxSpecBytes+1))
	dec.DisallowUnknownFields()
	var spec JobSpec
	if err := dec.Decode(&spec); err != nil {
		return nil, badRequestf("invalid job spec: %v", err)
	}
	if dec.More() {
		return nil, badRequestf("invalid job spec: trailing data after JSON document")
	}
	return &spec, nil
}

// Canonicalize validates the spec and fills in paper defaults, so that
// every spec naming the same experiment hashes identically: scale 0
// becomes paper.DefaultScale, seed 0 becomes 1, an empty cache list
// becomes the paper's five direct-mapped sizes, and each cache config
// gets its geometry defaults. Returns a BadRequestError for anything a
// client can get wrong.
func (s *JobSpec) Canonicalize() error {
	if _, ok := workload.ByName(s.Program); !ok {
		return badRequestf("unknown program %q (have: %v)", s.Program, workload.Names())
	}
	if !knownAllocator(s.Allocator) {
		return badRequestf("unknown allocator %q (have: %v)", s.Allocator, alloc.Names())
	}
	if s.Scale == 0 {
		s.Scale = paper.DefaultScale
	}
	if s.Seed == 0 {
		s.Seed = 1
	}
	if len(s.Caches) == 0 {
		s.Caches = make([]CacheSpec, len(paper.CacheSizes))
		for i, size := range paper.CacheSizes {
			s.Caches[i] = CacheSpec{Size: size}
		}
	}
	if len(s.Caches) > MaxCaches {
		return badRequestf("too many cache configs: %d > %d", len(s.Caches), MaxCaches)
	}
	for i := range s.Caches {
		c := &s.Caches[i]
		if c.Size > MaxCacheSize {
			return badRequestf("cache %d: size %d exceeds limit %d", i, c.Size, MaxCacheSize)
		}
		if c.LineSize == 0 {
			c.LineSize = cache.DefaultLineSize
		}
		if c.Assoc == 0 {
			c.Assoc = 1
		}
		if err := c.config().Validate(); err != nil {
			return badRequestf("cache %d: %v", i, err)
		}
	}
	// sim runs the whole list as one cache.Group.
	if err := cache.ValidateGroup(s.cacheConfigs()...); err != nil {
		return badRequestf("caches: %v", err)
	}
	return nil
}

// cacheConfigs returns the spec's caches as simulator configurations.
func (s *JobSpec) cacheConfigs() []cache.Config {
	cfgs := make([]cache.Config, len(s.Caches))
	for i, c := range s.Caches {
		cfgs[i] = c.config()
	}
	return cfgs
}

func knownAllocator(name string) bool {
	names := alloc.Names()
	i := sort.SearchStrings(names, name)
	return i < len(names) && names[i] == name
}

// Timeout resolves the job's deadline against the server default.
func (s *JobSpec) Timeout(def time.Duration) time.Duration {
	if s.TimeoutMS > 0 {
		return time.Duration(s.TimeoutMS) * time.Millisecond
	}
	return def
}

// hashDoc is the canonical identity of a result: everything that
// determines the report bytes, and nothing else. TimeoutMS is absent —
// it bounds execution, it does not change the answer — and the report
// schema version is included so a schema bump invalidates cached
// results.
type hashDoc struct {
	ReportVersion int         `json:"report_version"`
	Program       string      `json:"program"`
	Allocator     string      `json:"allocator"`
	Scale         uint64      `json:"scale"`
	Seed          uint64      `json:"seed"`
	Caches        []CacheSpec `json:"caches"`
	PageSim       bool        `json:"page_sim"`
}

// Hash returns the hex SHA-256 content address of the canonicalized
// spec's result. Call Canonicalize first; hashing a raw spec would
// give defaulted and explicit forms of the same experiment different
// addresses.
func (s *JobSpec) Hash() string {
	b, err := json.Marshal(hashDoc{
		ReportVersion: obs.ReportVersion,
		Program:       s.Program,
		Allocator:     s.Allocator,
		Scale:         s.Scale,
		Seed:          s.Seed,
		Caches:        s.Caches,
		PageSim:       s.PageSim,
	})
	if err != nil {
		// Marshalling a struct of scalars and slices cannot fail.
		panic("serve: hash marshal: " + err.Error())
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}
