package hotalloc_test

import (
	"testing"

	"mallocsim/internal/analysis/analysistest"
	"mallocsim/internal/analysis/hotalloc"
)

func TestHotAlloc(t *testing.T) {
	analysistest.Run(t, "../testdata", hotalloc.Analyzer, "hot/cache", "hot/vm", "hot/trace", "hot/mem")
}
