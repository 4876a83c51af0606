package vfs

import (
	"fmt"
	"io/fs"
	"math/rand"
	"strconv"
	"strings"
	"sync"
	"syscall"
)

// Op names one FS operation class for fault matching.
type Op int

const (
	OpWrite Op = iota
	OpSync
	OpCreate // Create and CreateExcl
	OpOpen   // Open and OpenAppend
	OpReadDir
	OpStat
	OpTruncate
	OpRename
	OpRemove
	OpMkdir
	OpSyncDir
	opCount
)

var opNames = [...]string{
	OpWrite: "write", OpSync: "sync", OpCreate: "create", OpOpen: "open",
	OpReadDir: "readdir", OpStat: "stat", OpTruncate: "truncate",
	OpRename: "rename", OpRemove: "remove", OpMkdir: "mkdir", OpSyncDir: "syncdir",
}

func (o Op) String() string {
	if int(o) < len(opNames) {
		return opNames[o]
	}
	return "op?"
}

// ParseOp parses an operation name as used in fault schedule specs.
func ParseOp(s string) (Op, error) {
	for op, name := range opNames {
		if name == s {
			return Op(op), nil
		}
	}
	return 0, fmt.Errorf("vfs: unknown op %q", s)
}

// Rule is one fault in a schedule: it arms after After matching operations
// have passed through and then fires Times times (0 is treated as once,
// -1 = forever). A fired write with Partial > 0 writes that many bytes
// before returning the error — a torn write. Prob, when in (0,1), fires the
// rule probabilistically instead (seeded, deterministic) on each matching
// call past After.
type Rule struct {
	Op      Op
	Path    string // substring match on the operation's path ("" = any)
	After   int    // matching calls to skip before the rule arms
	Times   int    // times to fire once armed; 0 = once, -1 = forever
	Err     error  // error to return (nil = EIO)
	Partial int    // OpWrite only: bytes written before failing
	Prob    float64

	seen  int // matching calls observed
	fired int
}

// Fault wraps a base FS and injects errors according to a deterministic,
// seeded schedule of rules. All methods are safe for concurrent use; the
// serialization also makes the schedule deterministic for a single-writer
// caller like the WAL. Operation counts are kept per Op for test assertions.
type Fault struct {
	base FS

	mu     sync.Mutex
	rng    *rand.Rand
	rules  []*Rule
	counts [opCount]int
	errs   [opCount]int
}

// NewFault returns a fault-injecting FS over base. seed drives the
// probabilistic rules; equal seeds give equal schedules.
func NewFault(base FS, seed int64) *Fault {
	return &Fault{base: base, rng: rand.New(rand.NewSource(seed))}
}

// Inject adds a rule to the schedule. The rule is copied; later mutation of
// the argument has no effect.
func (f *Fault) Inject(r Rule) {
	f.mu.Lock()
	defer f.mu.Unlock()
	rc := r
	f.rules = append(f.rules, &rc)
}

// Clear drops every rule (the disk "heals").
func (f *Fault) Clear() {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.rules = nil
}

// Count returns how many operations of class op have been issued.
func (f *Fault) Count(op Op) int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.counts[op]
}

// Errors returns how many operations of class op were failed by a rule.
func (f *Fault) Errors(op Op) int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.errs[op]
}

// ErrorsTotal returns the total number of injected failures.
func (f *Fault) ErrorsTotal() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	n := 0
	for _, e := range f.errs {
		n += e
	}
	return n
}

// check records one operation and returns the rule error to inject, the
// partial-write byte count (writes only), and whether a fault fires.
func (f *Fault) check(op Op, path string) (error, int, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.counts[op]++
	for _, r := range f.rules {
		if r.Op != op || (r.Path != "" && !strings.Contains(path, r.Path)) {
			continue
		}
		r.seen++
		if r.seen <= r.After {
			continue
		}
		limit := r.Times
		if limit == 0 {
			limit = 1
		}
		if limit > 0 && r.fired >= limit {
			continue
		}
		if r.Prob > 0 && r.Prob < 1 && f.rng.Float64() >= r.Prob {
			continue
		}
		r.fired++
		f.errs[op]++
		err := r.Err
		if err == nil {
			err = syscall.EIO
		}
		return fmt.Errorf("vfs: injected %s fault on %s: %w", op, path, err), r.Partial, true
	}
	return nil, 0, false
}

// faultFile wraps a base File so writes and fsyncs pass through the
// schedule. The path is kept for matching.
type faultFile struct {
	File
	f    *Fault
	path string
}

func (ff *faultFile) Write(p []byte) (int, error) {
	if err, partial, ok := ff.f.check(OpWrite, ff.path); ok {
		n := 0
		if partial > 0 && partial < len(p) {
			// Torn write: part of the payload reaches the file before the
			// error surfaces, exactly like a short write at byte k.
			n, _ = ff.File.Write(p[:partial])
		}
		return n, err
	}
	return ff.File.Write(p)
}

func (ff *faultFile) Sync() error {
	if err, _, ok := ff.f.check(OpSync, ff.path); ok {
		return err
	}
	return ff.File.Sync()
}

func (f *Fault) wrap(file File, err error, path string) (File, error) {
	if err != nil {
		return nil, err
	}
	return &faultFile{File: file, f: f, path: path}, nil
}

func (f *Fault) Create(name string) (File, error) {
	if err, _, ok := f.check(OpCreate, name); ok {
		return nil, err
	}
	file, err := f.base.Create(name)
	return f.wrap(file, err, name)
}

func (f *Fault) CreateExcl(name string) (File, error) {
	if err, _, ok := f.check(OpCreate, name); ok {
		return nil, err
	}
	file, err := f.base.CreateExcl(name)
	return f.wrap(file, err, name)
}

func (f *Fault) OpenAppend(name string) (File, error) {
	if err, _, ok := f.check(OpOpen, name); ok {
		return nil, err
	}
	file, err := f.base.OpenAppend(name)
	return f.wrap(file, err, name)
}

func (f *Fault) Open(name string) (File, error) {
	if err, _, ok := f.check(OpOpen, name); ok {
		return nil, err
	}
	file, err := f.base.Open(name)
	return f.wrap(file, err, name)
}

func (f *Fault) ReadDir(name string) ([]fs.DirEntry, error) {
	if err, _, ok := f.check(OpReadDir, name); ok {
		return nil, err
	}
	return f.base.ReadDir(name)
}

func (f *Fault) Stat(name string) (fs.FileInfo, error) {
	if err, _, ok := f.check(OpStat, name); ok {
		return nil, err
	}
	return f.base.Stat(name)
}

func (f *Fault) Truncate(name string, size int64) error {
	if err, _, ok := f.check(OpTruncate, name); ok {
		return err
	}
	return f.base.Truncate(name, size)
}

func (f *Fault) Rename(oldpath, newpath string) error {
	if err, _, ok := f.check(OpRename, oldpath); ok {
		return err
	}
	return f.base.Rename(oldpath, newpath)
}

func (f *Fault) Remove(name string) error {
	if err, _, ok := f.check(OpRemove, name); ok {
		return err
	}
	return f.base.Remove(name)
}

func (f *Fault) MkdirAll(name string, perm fs.FileMode) error {
	if err, _, ok := f.check(OpMkdir, name); ok {
		return err
	}
	return f.base.MkdirAll(name, perm)
}

func (f *Fault) SyncDir(dir string) error {
	if err, _, ok := f.check(OpSyncDir, dir); ok {
		return err
	}
	return f.base.SyncDir(dir)
}

// ParseSchedule builds a fault FS over base from a compact schedule spec —
// the -wal-fault CLI syntax used by the chaos smoke script. The spec is a
// semicolon-separated list of rules; each rule is colon-separated fields
// starting with the op name:
//
//	op[:path=SUBSTR][:after=N][:times=M][:err=eio|enospc][:partial=K][:p=F]
//
// with N >= 0, M >= -1, K >= 0 (write rules only) and 0 <= F <= 1; values
// out of range are rejected, as netfault.ParseSchedule rejects them.
//
// Examples:
//
//	sync:after=40:times=3              the 41st..43rd fsyncs fail with EIO
//	write:after=100:times=0:partial=7  the 101st write tears at byte 7
//	rename:path=ckpt:times=-1          every checkpoint rename fails forever
//	sync:p=0.01:times=-1               each fsync fails with probability 1%
func ParseSchedule(base FS, seed int64, spec string) (*Fault, error) {
	f := NewFault(base, seed)
	for _, part := range strings.Split(spec, ";") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		fields := strings.Split(part, ":")
		op, err := ParseOp(strings.TrimSpace(fields[0]))
		if err != nil {
			return nil, err
		}
		r := Rule{Op: op, Times: 0}
		for _, fld := range fields[1:] {
			k, v, ok := strings.Cut(fld, "=")
			if !ok {
				return nil, fmt.Errorf("vfs: bad rule field %q in %q", fld, part)
			}
			switch k {
			case "path":
				r.Path = v
			case "after":
				if r.After, err = strconv.Atoi(v); err != nil || r.After < 0 {
					return nil, fmt.Errorf("vfs: bad after=%q in %q", v, part)
				}
			case "times":
				if r.Times, err = strconv.Atoi(v); err != nil || r.Times < -1 {
					return nil, fmt.Errorf("vfs: bad times=%q in %q", v, part)
				}
			case "err":
				switch v {
				case "eio":
					r.Err = syscall.EIO
				case "enospc":
					r.Err = syscall.ENOSPC
				default:
					return nil, fmt.Errorf("vfs: unknown err=%q (want eio or enospc)", v)
				}
			case "partial":
				if r.Partial, err = strconv.Atoi(v); err != nil || r.Partial < 0 {
					return nil, fmt.Errorf("vfs: bad partial=%q in %q", v, part)
				}
			case "p":
				if r.Prob, err = strconv.ParseFloat(v, 64); err != nil || !(r.Prob >= 0 && r.Prob <= 1) {
					return nil, fmt.Errorf("vfs: bad p=%q in %q", v, part)
				}
			default:
				return nil, fmt.Errorf("vfs: unknown rule field %q in %q", k, part)
			}
		}
		if r.Partial > 0 && r.Op != OpWrite {
			return nil, fmt.Errorf("vfs: partial in %q requires op=write", part)
		}
		f.Inject(r)
	}
	return f, nil
}
