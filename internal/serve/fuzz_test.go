package serve

import (
	"strings"
	"testing"

	"mallocsim/internal/cache"
)

// mixedLineSpec passes every per-cache check but names two line sizes,
// which one cache.Group cannot hold.
const mixedLineSpec = `{"program":"gawk","allocator":"bsd","scale":1024,"caches":[{"size":16384,"line_size":32},{"size":16384,"line_size":64}]}`

// FuzzJobSpec feeds arbitrary bytes through the request-decoding path
// — decode, canonicalize, hash — and asserts the invariants the HTTP
// layer depends on: no panic on any input, every rejection is a typed
// BadRequestError (so clients get a 4xx, never a 500), and any spec
// that is accepted canonicalizes to a stable content hash and a cache
// list the simulator can run as one group.
func FuzzJobSpec(f *testing.F) {
	seeds := []string{
		``,
		`{}`,
		`{"program":"make","allocator":"bsd"}`,
		`{"program":"espresso","allocator":"firstfit","scale":64,"seed":7}`,
		`{"program":"make","allocator":"bsd","caches":[{"size":16384,"assoc":4}],"page_sim":true}`,
		`{"program":"make","allocator":"bsd","timeout_ms":500}`,
		`{"program":"doom","allocator":"bsd"}`,
		`{"program":"make","allocator":"hoard"}`,
		`{"program":"make","allocator":"bsd","caches":[{"size":100}]}`,
		`{"program":"make","allocator":"bsd","caches":[{"size":18446744073709551615}]}`,
		`{"program":"make","allocator":"bsd","caches":[{"size":16384,"line_size":48}]}`,
		`{"program":"make","allocator":"bsd","caches":[{"size":16384,"assoc":-1}]}`,
		`{"program":"make","allocator":"bsd","frobnicate":true}`,
		`{"program":"make","allocator":"bsd"} trailing`,
		`[1,2,3]`,
		`"just a string"`,
		`{{{`,
		"\x00\xff\xfe",
		mixedLineSpec,
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		spec, err := DecodeJobSpec(strings.NewReader(string(data)))
		if err != nil {
			if !IsBadRequest(err) {
				t.Fatalf("decode error is not a BadRequestError: %v", err)
			}
			return
		}
		if err := spec.Canonicalize(); err != nil {
			if !IsBadRequest(err) {
				t.Fatalf("canonicalize error is not a BadRequestError: %v", err)
			}
			return
		}
		// An accepted spec must have a stable, fully-defaulted identity.
		h1 := spec.Hash()
		if len(h1) != 64 {
			t.Fatalf("hash %q is not a hex sha256", h1)
		}
		if err := spec.Canonicalize(); err != nil {
			t.Fatalf("re-canonicalizing an accepted spec failed: %v", err)
		}
		if h2 := spec.Hash(); h2 != h1 {
			t.Fatalf("canonicalization is not idempotent: %s != %s", h2, h1)
		}
		if spec.Scale == 0 || spec.Seed == 0 || len(spec.Caches) == 0 {
			t.Fatalf("accepted spec missing defaults: %+v", spec)
		}
		// sim builds the cache list as one cache.Group. The rule is
		// checked without building the group: MaxCaches caches of
		// MaxCacheSize bytes would allocate gigabytes of tags.
		if err := cache.ValidateGroup(spec.cacheConfigs()...); err != nil {
			t.Fatalf("accepted spec fails the cache group rule: %v", err)
		}
	})
}
