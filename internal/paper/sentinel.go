package paper

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"mallocsim/internal/store"
)

// The sentinel replays the paper's experiment battery and diffs every
// table against a stored baseline — the golden fixtures under
// testdata/golden, or documents recorded in a durable store. Because
// the simulator is deterministic, a clean tree reproduces each golden
// table byte-for-byte; any divergence is attributed to the experiment,
// row and column that moved, with absolute and relative deltas.

// SentinelVersion is the schema version stamped into sentinel report
// documents; bump on field renames.
const SentinelVersion = 1

// SentinelKind is the document kind of a JSON-encoded sentinel report.
const SentinelKind = "mallocsim-sentinel-report"

// GoldenScale is the scale divisor the committed golden fixtures were
// generated at. Replaying at any other scale diffs against the wrong
// baseline (the table note embeds the scale, so the mismatch is loud).
const GoldenScale = 256

// ErrNoBaseline reports that a baseline source has no document for an
// experiment. The sentinel flags the experiment rather than failing.
var ErrNoBaseline = errors.New("paper: no baseline for experiment")

// BaselineSource yields the baseline table for an experiment ID, plus
// the raw bytes it was decoded from so the sentinel can assert byte
// identity, not just value identity.
type BaselineSource interface {
	Load(id string) (*Table, []byte, error)
}

// DirBaseline reads baselines from a directory of <id>.json table
// documents — the layout of testdata/golden.
type DirBaseline struct {
	Dir string
}

// Load reads and decodes <dir>/<id>.json.
func (d DirBaseline) Load(id string) (*Table, []byte, error) {
	raw, err := os.ReadFile(filepath.Join(d.Dir, id+".json"))
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil, fmt.Errorf("%w: %s", ErrNoBaseline, id)
	}
	if err != nil {
		return nil, nil, err
	}
	t, err := DecodeTable(raw)
	if err != nil {
		return nil, nil, fmt.Errorf("paper: baseline %s: %w", id, err)
	}
	return t, raw, nil
}

// StoreBaseline reads baselines from a durable document store: the
// newest "paper-table" document named after the experiment.
type StoreBaseline struct {
	Store store.Store
}

// Load fetches and decodes the latest stored table for the experiment.
func (s StoreBaseline) Load(id string) (*Table, []byte, error) {
	entries := store.Select(s.Store, store.Filter{Kind: "paper-table", Name: id})
	if len(entries) == 0 {
		return nil, nil, fmt.Errorf("%w: %s", ErrNoBaseline, id)
	}
	// Listings are sorted by (StoredAt, Hash); the last entry is the
	// newest recording.
	raw, err := s.Store.Get(entries[len(entries)-1].Hash)
	if err != nil {
		return nil, nil, fmt.Errorf("paper: baseline %s: %w", id, err)
	}
	t, err := DecodeTable(raw)
	if err != nil {
		return nil, nil, fmt.Errorf("paper: baseline %s: %w", id, err)
	}
	return t, raw, nil
}

// RecordTable writes a table document into the store, content-addressed
// by the SHA-256 of its canonical encoding, and returns that hash.
// Re-recording an unchanged table is an idempotent no-op (same bytes,
// same address); a changed table lands under a new address, becoming
// the baseline StoreBaseline serves.
func RecordTable(st store.Store, t *Table, scale, seed uint64) (string, error) {
	raw, err := EncodeTable(t)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(raw)
	hash := hex.EncodeToString(sum[:])
	if err := st.Put(hash, raw, store.Meta{
		Kind: "paper-table", Name: t.ID, Scale: scale, Seed: seed,
	}); err != nil {
		return "", err
	}
	return hash, nil
}

// CellDelta is one table cell that moved between baseline and current.
type CellDelta struct {
	// Row is the row label (the first cell of the row).
	Row string `json:"row"`
	// Column is the column's header name.
	Column string `json:"column"`
	// A and B are the baseline and current cell texts.
	A string `json:"a"`
	B string `json:"b"`
	// Numeric reports whether both cells parsed as numbers (a "%"
	// suffix is tolerated); AbsDelta and RelDelta are meaningful only
	// when it is set.
	Numeric bool `json:"numeric"`
	// AbsDelta is current minus baseline, in the cell's own units.
	AbsDelta float64 `json:"abs_delta,omitempty"`
	// RelDelta is |b-a| / max(|a|,|b|): symmetric and bounded to
	// [0, 1], so zero baselines do not produce infinities.
	RelDelta float64 `json:"rel_delta,omitempty"`
	// Significant marks deltas past the configured threshold. A zero
	// threshold flags every change; non-numeric changes are always
	// significant.
	Significant bool `json:"significant"`
}

// ExperimentDiff is the sentinel's verdict for one experiment.
type ExperimentDiff struct {
	ID string `json:"id"`
	// Status is "ok", "regression" or "missing-baseline".
	Status string `json:"status"`
	// Identical reports byte-for-byte identity with the baseline
	// document — the expected state of a clean tree.
	Identical bool `json:"identical"`
	// Structural lists shape mismatches: title/note/header changes,
	// rows present on only one side.
	Structural []string `json:"structural,omitempty"`
	// Cells lists every changed cell of rows present on both sides.
	Cells []CellDelta `json:"cells,omitempty"`
	// Flagged counts structural mismatches plus significant cells; a
	// non-zero count makes the status "regression".
	Flagged int `json:"flagged"`
}

// SentinelReport is the full battery verdict, JSON-encodable as a
// versioned document.
type SentinelReport struct {
	Version     int              `json:"version"`
	Kind        string           `json:"kind"`
	Scale       uint64           `json:"scale"`
	Seed        uint64           `json:"seed"`
	Threshold   float64          `json:"threshold"`
	Checked     int              `json:"checked"`
	Regressions int              `json:"regressions"`
	Experiments []ExperimentDiff `json:"experiments"`
}

// Clean reports whether every experiment matched its baseline.
func (r *SentinelReport) Clean() bool { return r.Regressions == 0 }

// String renders the human-readable verdict: one line per experiment,
// with each flagged structural mismatch and cell delta attributed to
// its experiment, row and column.
func (r *SentinelReport) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "sentinel: %d experiments at scale 1/%d, seed %d, threshold %g\n",
		r.Checked, r.Scale, r.Seed, r.Threshold)
	for _, e := range r.Experiments {
		switch {
		case e.Status == "ok" && e.Identical:
			fmt.Fprintf(&sb, "  %-10s ok (byte-identical)\n", e.ID)
		case e.Status == "ok":
			fmt.Fprintf(&sb, "  %-10s ok (%d sub-threshold deltas)\n", e.ID, len(e.Cells))
		case e.Status == "missing-baseline":
			fmt.Fprintf(&sb, "  %-10s MISSING BASELINE\n", e.ID)
		default:
			fmt.Fprintf(&sb, "  %-10s REGRESSION (%d flagged)\n", e.ID, e.Flagged)
			for _, s := range e.Structural {
				fmt.Fprintf(&sb, "    structural: %s\n", s)
			}
			for _, c := range e.Cells {
				if !c.Significant {
					continue
				}
				if c.Numeric {
					fmt.Fprintf(&sb, "    [%s × %s] %s -> %s (abs %+g, rel %.2f%%)\n",
						c.Row, c.Column, c.A, c.B, c.AbsDelta, c.RelDelta*100)
				} else {
					fmt.Fprintf(&sb, "    [%s × %s] %q -> %q\n", c.Row, c.Column, c.A, c.B)
				}
			}
		}
	}
	if r.Regressions == 0 {
		sb.WriteString("sentinel: clean — no regressions\n")
	} else {
		fmt.Fprintf(&sb, "sentinel: %d of %d experiments regressed\n", r.Regressions, r.Checked)
	}
	return sb.String()
}

// Sentinel replays experiments and diffs them against a baseline.
type Sentinel struct {
	// Runner executes the battery. Its Scale must match the scale the
	// baseline was recorded at for the comparison to be meaningful.
	Runner *Runner
	// Baseline supplies the reference documents.
	Baseline BaselineSource
	// Threshold is the relative delta above which a numeric cell
	// change is a regression. Zero means any change regresses —
	// the right setting for a deterministic simulator.
	Threshold float64
	// Experiments optionally restricts the battery to a subset of
	// IDs; nil replays every paper experiment.
	Experiments []string
}

// Run replays the battery and returns the verdict. The error is
// operational (a simulation failed, a baseline was unreadable) —
// regressions are reported in the SentinelReport, not as errors.
func (s *Sentinel) Run(ctx context.Context) (*SentinelReport, error) {
	ids := s.Experiments
	if len(ids) == 0 {
		ids = idsOf(s.Runner.Experiments())
	}
	tables, err := s.Runner.Tables(ctx, ids...)
	if err != nil {
		return nil, fmt.Errorf("paper: sentinel replay: %w", err)
	}
	rep := &SentinelReport{
		Version:   SentinelVersion,
		Kind:      SentinelKind,
		Scale:     s.Runner.Scale,
		Seed:      s.Runner.Seed,
		Threshold: s.Threshold,
	}
	for i, id := range ids {
		curRaw, err := EncodeTable(tables[i])
		if err != nil {
			return nil, fmt.Errorf("paper: sentinel encode %s: %w", id, err)
		}
		base, baseRaw, err := s.Baseline.Load(id)
		switch {
		case errors.Is(err, ErrNoBaseline):
			rep.Experiments = append(rep.Experiments, ExperimentDiff{
				ID: id, Status: "missing-baseline", Flagged: 1,
			})
			rep.Regressions++
		case err != nil:
			return nil, err
		default:
			d := DiffTables(base, tables[i], s.Threshold)
			d.Identical = string(curRaw) == string(baseRaw)
			if d.Status == "regression" {
				rep.Regressions++
			}
			rep.Experiments = append(rep.Experiments, d)
		}
		rep.Checked++
	}
	return rep, nil
}

// DiffTables compares a current table against its baseline. Rows are
// aligned by their label (first cell) so a reordered table reports
// moved rows structurally rather than as a wall of cell deltas;
// duplicate labels pair up in order of appearance.
func DiffTables(baseline, current *Table, relThreshold float64) ExperimentDiff {
	d := ExperimentDiff{ID: current.ID, Status: "ok"}
	structural := func(format string, args ...any) {
		d.Structural = append(d.Structural, fmt.Sprintf(format, args...))
		d.Flagged++
	}
	if baseline.ID != current.ID {
		structural("id: %q -> %q", baseline.ID, current.ID)
	}
	if baseline.Title != current.Title {
		structural("title: %q -> %q", baseline.Title, current.Title)
	}
	if baseline.Note != current.Note {
		structural("note: %q -> %q", baseline.Note, current.Note)
	}
	if len(baseline.Header) != len(current.Header) {
		structural("header: %d columns -> %d columns", len(baseline.Header), len(current.Header))
	}
	for i := 0; i < len(baseline.Header) && i < len(current.Header); i++ {
		if baseline.Header[i] != current.Header[i] {
			structural("header[%d]: %q -> %q", i, baseline.Header[i], current.Header[i])
		}
	}

	// Pair rows by label, consuming current-side matches in order.
	claimed := make([]bool, len(current.Rows))
	match := func(label string) int {
		for j, row := range current.Rows {
			if !claimed[j] && len(row) > 0 && row[0] == label {
				claimed[j] = true
				return j
			}
		}
		return -1
	}
	for _, brow := range baseline.Rows {
		if len(brow) == 0 {
			continue
		}
		j := match(brow[0])
		if j < 0 {
			structural("row %q: missing from current", brow[0])
			continue
		}
		crow := current.Rows[j]
		if len(brow) != len(crow) {
			structural("row %q: %d cells -> %d cells", brow[0], len(brow), len(crow))
		}
		for i := 1; i < len(brow) && i < len(crow); i++ {
			if brow[i] == crow[i] {
				continue
			}
			col := fmt.Sprintf("col%d", i)
			if i < len(baseline.Header) {
				col = baseline.Header[i]
			}
			c := CellDelta{Row: brow[0], Column: col, A: brow[i], B: crow[i]}
			va, aok := numericCell(brow[i])
			vb, bok := numericCell(crow[i])
			if aok && bok {
				c.Numeric = true
				c.AbsDelta = vb - va
				c.RelDelta = symRelDelta(va, vb)
				c.Significant = c.RelDelta > relThreshold
			} else {
				c.Significant = true
			}
			if c.Significant {
				d.Flagged++
			}
			d.Cells = append(d.Cells, c)
		}
	}
	for j, row := range current.Rows {
		if !claimed[j] && len(row) > 0 {
			structural("row %q: not in baseline", row[0])
		}
	}
	if d.Flagged > 0 {
		d.Status = "regression"
	}
	return d
}

// numericCell parses a table cell as a number, tolerating the percent
// suffix the formatting helpers emit.
func numericCell(s string) (float64, bool) {
	v, err := strconv.ParseFloat(strings.TrimSuffix(s, "%"), 64)
	return v, err == nil
}

// symRelDelta is the symmetric relative delta |b-a| / max(|a|,|b|),
// zero when both sides are zero.
func symRelDelta(a, b float64) float64 {
	if a == b {
		return 0
	}
	den := math.Max(math.Abs(a), math.Abs(b))
	if den == 0 {
		return 0
	}
	return math.Abs(b-a) / den
}
