// Package mem is a minimal fixture stand-in for the real internal/mem:
// the analyzers match packages by path suffix, so this stub carries the
// same geometry constants, sentinels and method names. wordaddr skips
// packages named mem, which is why the bare literals here are fine.
package mem

import "errors"

const (
	WordSize = 4
	LineSize = 32
	PageSize = 4096
)

var (
	ErrOutOfMemory = errors.New("mem: out of memory")
	ErrBadAddress  = errors.New("mem: address outside allocated region")
)

// Memory mirrors the reference-emitting simulated address space.
type Memory struct{}

func (m *Memory) ReadWord(addr uint64) uint64 { return addr }
func (m *Memory) PeekWord(addr uint64) uint64 { return addr }
func (m *Memory) WriteWord(addr, val uint64)  {}
func (m *Memory) Touch(addr uint64, n uint64) {}
func (m *Memory) Flush()                      {}

// Region mirrors the pure geometry surface plus the growing Sbrk.
type Region struct{}

func (r *Region) Sbrk(n uint64) (uint64, error) { return 0, nil }
func (r *Region) EncodePtr(addr uint64) uint64  { return addr }
func (r *Region) DecodePtr(w uint64) uint64     { return w }
func (r *Region) Contains(addr uint64) bool     { return addr != 0 }
func (r *Region) Base() uint64                  { return 0 }

// WordOf is the blessed word-index helper.
func WordOf(addr uint64) uint64 { return addr / WordSize }
