package replica

import (
	"fmt"
	"io/fs"
	"path/filepath"
	"sync"

	"fdrms/internal/wal"
)

// FaultFS is a deterministic fault-injection layer over a wal.FS: tests and
// the replication bench script the exact filesystem views a follower can
// encounter — segments whose visibility lags the primary (delayed rename or
// stalled fsync ordering), files truncated mid-record, and flipped bytes in
// sealed or active segments — without sleeping, killing processes, or
// depending on real I/O timing. All methods are safe for concurrent use:
// the test goroutine injects while the follower's replay loop reads.
//
// Faults compose per file name: visibility is applied first (a hidden or
// frozen-out file is absent from listings and unreadable), then the frozen
// or injected length cap, then byte flips. Clearing a fault restores the
// passthrough view, which is how "fault heals, follower resumes" scenarios
// are scripted.
type FaultFS struct {
	inner wal.FS

	mu       sync.Mutex
	hidden   map[string]bool  // base name -> absent from ReadDir/ReadFile
	truncate map[string]int64 // base name -> visible byte cap
	flips    map[string][]int // base name -> offsets with bit 0x01 flipped
	frozen   map[string]int64 // base name -> length pinned by Freeze
	stalled  bool             // serve the frozen view instead of the live one
	dirErr   bool             // ReadDir fails entirely (directory unreachable)
}

// NewFaultFS wraps inner (nil means the real filesystem) with no faults
// armed.
func NewFaultFS(inner wal.FS) *FaultFS {
	if inner == nil {
		inner = wal.OSFS{}
	}
	return &FaultFS{
		inner:    inner,
		hidden:   make(map[string]bool),
		truncate: make(map[string]int64),
		flips:    make(map[string][]int),
		frozen:   make(map[string]int64),
	}
}

// Hide removes a file from the follower's view: absent from listings,
// unreadable directly — a segment whose creation the follower cannot see
// yet, or one deleted under it.
func (f *FaultFS) Hide(name string) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.hidden[name] = true
}

// Reveal clears a Hide.
func (f *FaultFS) Reveal(name string) {
	f.mu.Lock()
	defer f.mu.Unlock()
	delete(f.hidden, name)
}

// TruncateAt caps how many bytes of a file the follower sees — a mid-record
// truncation when the cap lands inside a record. A negative cap clears the
// fault.
func (f *FaultFS) TruncateAt(name string, size int64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if size < 0 {
		delete(f.truncate, name)
		return
	}
	f.truncate[name] = size
}

// FlipByte XORs bit 0x01 into the byte at offset every time the file is
// read — CRC-breaking damage in whichever segment the name picks, sealed or
// active. Repeated calls accumulate offsets; ClearFlips undoes them all.
func (f *FaultFS) FlipByte(name string, offset int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.flips[name] = append(f.flips[name], offset)
}

// ClearFlips removes every byte flip on a file.
func (f *FaultFS) ClearFlips(name string) {
	f.mu.Lock()
	defer f.mu.Unlock()
	delete(f.flips, name)
}

// Freeze pins the follower's view of dir at its current state — every file
// keeps the exact length it has now, and files created later stay invisible:
// the view a stalled fsync/rename pipeline would pin while the primary keeps
// writing. ClearStall resumes live reads.
func (f *FaultFS) Freeze(dir string) error {
	names, err := f.inner.ReadDir(dir)
	if err != nil {
		return err
	}
	frozen := make(map[string]int64, len(names))
	for _, n := range names {
		data, err := f.inner.ReadFile(filepath.Join(dir, n))
		if err != nil {
			return err
		}
		frozen[n] = int64(len(data))
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	f.frozen = frozen
	f.stalled = true
	return nil
}

// ClearStall lifts Freeze and forgets the frozen lengths.
func (f *FaultFS) ClearStall() {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.stalled = false
	f.frozen = make(map[string]int64)
}

// FailDir makes ReadDir fail while set — the whole directory unreachable
// (network mount dropped, primary host down).
func (f *FaultFS) FailDir(fail bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.dirErr = fail
}

// ReadDir lists the underlying directory minus hidden and frozen-out files.
func (f *FaultFS) ReadDir(dir string) ([]string, error) {
	f.mu.Lock()
	if f.dirErr {
		f.mu.Unlock()
		return nil, &fs.PathError{Op: "readdir", Path: dir, Err: fmt.Errorf("injected: directory unreachable")}
	}
	f.mu.Unlock()

	names, err := f.inner.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	out := names[:0]
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, n := range names {
		if f.hidden[n] {
			continue
		}
		if f.stalled {
			if _, ok := f.frozen[n]; !ok {
				continue // created after the freeze: not visible yet
			}
		}
		out = append(out, n)
	}
	return out, nil
}

// ReadFile serves the faulted view of one file.
func (f *FaultFS) ReadFile(path string) ([]byte, error) {
	base := filepath.Base(path)
	f.mu.Lock()
	if f.hidden[base] {
		f.mu.Unlock()
		return nil, &fs.PathError{Op: "read", Path: path, Err: fs.ErrNotExist}
	}
	if f.stalled {
		if _, ok := f.frozen[base]; !ok {
			f.mu.Unlock()
			return nil, &fs.PathError{Op: "read", Path: path, Err: fs.ErrNotExist}
		}
	}
	f.mu.Unlock()

	data, err := f.inner.ReadFile(path)
	if err != nil {
		return nil, err
	}

	f.mu.Lock()
	defer f.mu.Unlock()
	if f.stalled {
		if cap := f.frozen[base]; int64(len(data)) > cap {
			data = data[:cap]
		}
	}
	if cap, ok := f.truncate[base]; ok && int64(len(data)) > cap {
		data = data[:cap]
	}
	if offs := f.flips[base]; len(offs) > 0 {
		mut := make([]byte, len(data))
		copy(mut, data)
		for _, o := range offs {
			if o >= 0 && o < len(mut) {
				mut[o] ^= 0x01
			}
		}
		data = mut
	}
	return data, nil
}
