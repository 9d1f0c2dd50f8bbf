package puresim_test

import (
	"testing"

	"mallocsim/internal/analysis/analysistest"
	"mallocsim/internal/analysis/puresim"
)

func TestPureSim(t *testing.T) {
	// oraclehelp is loaded alongside shadow so the call-graph traversal
	// can cross the package boundary; walk/alloc holds the HeapCheck.Run
	// root.
	analysistest.Run(t, "../testdata", puresim.Analyzer, "shadow", "oraclehelp", "walk/alloc")
}
