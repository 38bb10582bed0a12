// Package minidb is the MySQL 5.1.44 stand-in: a small storage engine
// with MyISAM-style table creation, an error-message catalogue, a lock
// manager, and an OLTP query path, written against the simulated C
// library.
//
// It carries the MySQL bugs of Table 1:
//
//   - abort from a double mutex unlock: mi_create's error-handling code
//     releases resources, including a mutex the normal flow has already
//     unlocked, so a failed close right after the unlock triggers a
//     double unlock [19];
//   - crash after a failed read of errmsg.sys: the error is logged, but
//     an uninitialized message structure is accessed anyway [20]. (The
//     related missing-file bug [21] is fixed: a failed open is handled.)
//
// The OLTP path (transactions doing fcntl/read/write) and the registered
// globals thread_count and shutdown_in_progress support the Table 6
// trigger-overhead study; the merge-big workload reproduces Table 2.
package minidb

import (
	"fmt"
	"sync"

	"lfi/internal/asm"
	"lfi/internal/coverage"
	"lfi/internal/isa"
	"lfi/internal/libsim"
)

// Module is the binary/module name used in stack frames and scenarios.
const Module = "minidb"

// Source files used in DWARF-style frame info; the Table 2 "within
// bug's file" trigger matches MiCreateFile.
const (
	MiCreateFile = "myisam/mi_create.c"
	HandlerFile  = "sql/handler.cc"
	ErrmsgFile   = "sql/derror.cc"
)

// Sites is the ground-truth call-site model.
func Sites() []asm.FuncSpec {
	return []asm.FuncSpec{
		{Name: "mi_create", Sites: []asm.SiteSpec{
			{Label: "mc_open", Callee: "open", Style: asm.CheckIneq},
			{Label: "mc_write", Callee: "write", Style: asm.CheckIneq},
			{Label: "mc_scratch_close", Callee: "close", Style: asm.CheckIneq},
			{Label: "mc_close", Callee: "close", Style: asm.CheckIneq}, // checked; recovery double-unlocks [19]
		}},
		{Name: "errmsg_load", Sites: []asm.SiteSpec{
			{Label: "em_open", Callee: "open", Style: asm.CheckIneq},
			{Label: "em_read", Callee: "read", Style: asm.CheckEq, Codes: []int64{-1}}, // logs, then crashes [20]
			{Label: "em_close", Callee: "close", Style: asm.CheckIneq},
		}},
		{Name: "handler_flush", Sites: []asm.SiteSpec{
			{Label: "hf_close1", Callee: "close", Style: asm.CheckIneq},
			{Label: "hf_close2", Callee: "close", Style: asm.CheckIneq},
			{Label: "hf_close3", Callee: "close", Style: asm.CheckEqViaCopy, Codes: []int64{-1}},
		}},
		{Name: "lock_manager", Sites: []asm.SiteSpec{
			{Label: "lm_fcntl", Callee: "fcntl", Style: asm.CheckIneq},
			{Label: "lm_fcntl2", Callee: "fcntl", Style: asm.CheckEq, Codes: []int64{-1}},
		}},
		{Name: "buffer_pool_init", Sites: []asm.SiteSpec{
			{Label: "bp_malloc1", Callee: "malloc", Style: asm.CheckEqZero},
			{Label: "bp_malloc2", Callee: "malloc", Style: asm.CheckEqZero},
		}},
		{Name: "oltp_txn", Sites: []asm.SiteSpec{
			{Label: "tx_read", Callee: "read", Style: asm.CheckEq, Codes: []int64{-1, 0}},
			{Label: "tx_write", Callee: "write", Style: asm.CheckIneq},
		}},
	}
}

var (
	binOnce sync.Once
	bin     *isa.Binary
	offs    map[string]uint64
)

// Binary returns the compiled minidb program image and site offsets.
func Binary() (*isa.Binary, map[string]uint64) {
	binOnce.Do(func() {
		var err error
		bin, offs, err = asm.Program(Module, Sites())
		if err != nil {
			panic("minidb: " + err.Error())
		}
	})
	return bin, offs
}

// App is one running minidb instance.
type App struct {
	C  *libsim.C
	Th *libsim.Thread

	mutex       int64 // THR_LOCK_myisam
	tableFD     int64
	errmsgReady bool
	errmsgs     []string

	threadCount        int64
	shutdownInProgress int64
	txnCount           int64

	// Reused run-loop scratch: the suite's read buffers and the bound
	// workload closure, kept on the instance so a pooled app's runs
	// allocate nothing for them.
	readBuf [256]byte
	txnBuf  [16]byte
	suite   func() error
}

// Fixed byte/path constants of the suite, hoisted so the hot run loop
// does not rebuild them per call.
var (
	myiHeader = []byte("MYI-header")
	updateRec = []byte("update;")

	flushLabels   = [...]string{"hf_close1", "hf_close2", "hf_close3"}
	flushRecIDs   = [...]string{"rec.hf_close1", "rec.hf_close2", "rec.hf_close3"}
	bufpoolLabels = [...]string{"bp_malloc1", "bp_malloc2"}
	bufpoolRecIDs = [...]string{"rec.bp_malloc1", "rec.bp_malloc2"}
)

// mergeNames are the six merge-big table names with their derived
// paths, precomputed because MergeBig runs them every suite.
var mergeNames = func() [6]struct{ name, tmp, myi string } {
	var out [6]struct{ name, tmp, myi string }
	for i := range out {
		name := fmt.Sprintf("merge_%d", i)
		out[i] = struct{ name, tmp, myi string }{name, "/var/db/" + name + ".tmp", "/var/db/" + name + ".MYI"}
	}
	return out
}()

// New stages database fixtures and returns a ready instance.
func New() *App {
	c := libsim.New(1 << 22)
	c.Cov = coverage.NewRecorder(Blocks)
	a := &App{C: c, Th: c.NewThread(Module, "main")}
	c.Owner = a
	a.suite = a.RunSuite
	a.mutex = c.MutexInit()
	c.MustMkdirAll("/var/db")
	c.MustWriteFile("/var/db/errmsg.sys", []byte("ER_DUP_KEY;ER_NO_SUCH_TABLE;ER_LOCK_WAIT"))
	c.MustWriteFile("/var/db/table.MYD", []byte("row1;row2;row3;row4"))
	c.SnapshotFS()
	c.RegisterVar("thread_count", func() int64 { return a.threadCount })
	c.RegisterVar("shutdown_in_progress", func() int64 { return a.shutdownInProgress })
	return a
}

// Reset rewinds the instance to its post-New state so a worker pool can
// reuse it: process image restored (fixtures, heap, handles, dispatcher
// counters), thread rewound, coverage hits cleared, app state zeroed.
// The mutex is freshly created rather than recycled — a crashed run can
// abandon the old one in a locked state.
func (a *App) Reset() {
	a.C.Reset()
	a.Th.Reset()
	a.mutex = a.C.MutexInit()
	a.tableFD = 0
	a.errmsgReady = false
	a.errmsgs = a.errmsgs[:0]
	a.threadCount = 0
	a.shutdownInProgress = 0
	a.txnCount = 0
}

func (a *App) atLine(fn, label, file string, line int) func() {
	_, offsets := Binary()
	return a.Th.EnterAt(Module, fn, offsets[label], file, line)
}

// Blocks is minidb's coverage universe: the MyISAM subsystems' mainline
// blocks and their recovery arms, named by the rec.<site label>
// convention.
var Blocks = coverage.NewIndex([]coverage.Block{
	{ID: "main.mi_create", LOC: 60},
	{ID: "main.errmsg", LOC: 30},
	{ID: "main.flush", LOC: 25},
	{ID: "main.lock", LOC: 20},
	{ID: "main.bufpool", LOC: 20},
	{ID: "main.txn", LOC: 30},
	{ID: "rec.mc_open", LOC: 8, Recovery: true},
	{ID: "rec.mc_write", LOC: 10, Recovery: true},
	{ID: "rec.mc_scratch_close", LOC: 4, Recovery: true},
	{ID: "rec.mc_close", LOC: 12, Recovery: true},
	{ID: "rec.em_open", LOC: 8, Recovery: true},
	{ID: "rec.em_read", LOC: 6, Recovery: true},
	{ID: "rec.em_close", LOC: 4, Recovery: true},
	{ID: "rec.hf_close1", LOC: 3, Recovery: true},
	{ID: "rec.hf_close2", LOC: 3, Recovery: true},
	{ID: "rec.hf_close3", LOC: 3, Recovery: true},
	{ID: "rec.lm_fcntl", LOC: 6, Recovery: true},
	{ID: "rec.lm_fcntl2", LOC: 6, Recovery: true},
	{ID: "rec.bp_malloc1", LOC: 7, Recovery: true},
	{ID: "rec.bp_malloc2", LOC: 7, Recovery: true},
	{ID: "rec.tx_read", LOC: 8, Recovery: true},
	{ID: "rec.tx_write", LOC: 8, Recovery: true},
})

// --- MyISAM table creation (Table 1 bug [19], Table 2 target) --------------

// MiCreate creates one MyISAM table. The close after the mutex unlock is
// checked, but its error-handling path releases the already-released
// mutex — glibc-style error-checking mutexes abort on the double unlock.
func (a *App) MiCreate(name string) error {
	return a.miCreate("/var/db/"+name+".tmp", "/var/db/"+name+".MYI")
}

// miCreate is MiCreate on precomputed paths (MergeBig reruns the same
// six tables every suite; rebuilding their path strings per run would
// dominate the allocation profile).
func (a *App) miCreate(tmpPath, myiPath string) error {
	t := a.Th
	a.C.Cov.Hit("main.mi_create")

	// A scratch descriptor, closed well before the lock region. Its
	// failure is tolerated (logged) without aborting table creation.
	scratch := t.Open(tmpPath, libsim.O_CREAT|libsim.O_WRONLY)
	if scratch >= 0 {
		pop := a.atLine("mi_create", "mc_scratch_close", MiCreateFile, 512)
		if t.Close(scratch) < 0 {
			a.C.Cov.Hit("rec.mc_scratch_close")
		}
		pop()
	}

	pop := a.atLine("mi_create", "mc_open", MiCreateFile, 540)
	fd := t.Open(myiPath, libsim.O_CREAT|libsim.O_WRONLY|libsim.O_TRUNC)
	pop()
	if fd < 0 {
		a.C.Cov.Hit("rec.mc_open")
		return fmt.Errorf("mi_create: open: %v", t.Errno())
	}

	t.MutexLock(a.mutex)

	pop = a.atLine("mi_create", "mc_write", MiCreateFile, 555)
	n := t.Write(fd, myiHeader)
	pop()
	if n < 0 {
		a.C.Cov.Hit("rec.mc_write")
		t.MutexUnlock(a.mutex)
		t.Close(fd)
		return fmt.Errorf("mi_create: write: %v", t.Errno())
	}

	// Normal flow releases the mutex...
	t.MutexUnlock(a.mutex)

	// ...and closes the index file immediately afterwards.
	pop = a.atLine("mi_create", "mc_close", MiCreateFile, 571)
	rc := t.Close(fd)
	pop()
	if rc < 0 {
		// BUG [19]: the error path releases "all" resources,
		// including the mutex the normal flow already released.
		a.C.Cov.Hit("rec.mc_close")
		t.MutexUnlock(a.mutex) // double unlock -> abort
		return fmt.Errorf("mi_create: close: %v", t.Errno())
	}
	return nil
}

// --- error message catalogue (Table 1 bug [20]) ------------------------------

// ErrmsgLoad reads errmsg.sys. A missing file is handled (bug [21] was
// fixed), but a failed read is only logged: the uninitialized message
// structure is accessed anyway and the server crashes.
func (a *App) ErrmsgLoad() error {
	t := a.Th
	a.C.Cov.Hit("main.errmsg")

	pop := a.atLine("errmsg_load", "em_open", ErrmsgFile, 120)
	fd := t.Open("/var/db/errmsg.sys", libsim.O_RDONLY)
	pop()
	if fd < 0 {
		a.C.Cov.Hit("rec.em_open")
		return fmt.Errorf("errmsg: cannot open errmsg.sys: %v", t.Errno())
	}

	buf := a.readBuf[:]
	pop = a.atLine("errmsg_load", "em_read", ErrmsgFile, 134)
	n := t.Read(fd, buf)
	pop()
	if n == -1 {
		// BUG [20]: log and continue; errmsgs stays uninitialized.
		a.C.Cov.Hit("rec.em_read")
	} else {
		a.errmsgs = splitMsgs(a.errmsgs[:0], string(buf[:max64(n, 0)]))
		a.errmsgReady = true
	}

	pop = a.atLine("errmsg_load", "em_close", ErrmsgFile, 150)
	if t.Close(fd) < 0 {
		a.C.Cov.Hit("rec.em_close")
	}
	pop()

	// First use of the catalogue: crashes if initialization failed.
	_ = a.Errmsg(0)
	return nil
}

// Errmsg returns message i from the catalogue, crashing on access to an
// uninitialized structure (the C code dereferences a garbage pointer).
func (a *App) Errmsg(i int) string {
	if !a.errmsgReady {
		a.Th.RaiseCrash(libsim.Segfault, "access to uninitialized errmsg structure")
	}
	if i < 0 || i >= len(a.errmsgs) {
		return ""
	}
	return a.errmsgs[i]
}

// splitMsgs appends the ';'-separated segments of s to out (the caller
// may pass a reused slice truncated to zero length).
func splitMsgs(out []string, s string) []string {
	start := 0
	for i := 0; i <= len(s); i++ {
		if i == len(s) || s[i] == ';' {
			if i > start {
				out = append(out, s[start:i])
			}
			start = i + 1
		}
	}
	return out
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

// --- handler / flush (the "other" closes of Table 2) --------------------------

// HandlerFlush closes three table-cache descriptors in sql/handler.cc.
// Failures here are real errors: the statement is aborted (gracefully).
func (a *App) HandlerFlush() error {
	t := a.Th
	a.C.Cov.Hit("main.flush")
	for i, label := range flushLabels {
		fd := t.Open("/var/db/table.MYD", libsim.O_RDONLY)
		if fd < 0 {
			return fmt.Errorf("flush: open: %v", t.Errno())
		}
		pop := a.atLine("handler_flush", label, HandlerFile, 800+10*i)
		rc := t.Close(fd)
		pop()
		if rc < 0 {
			a.C.Cov.Hit(flushRecIDs[i])
			return fmt.Errorf("flush: close %d: %v", i, t.Errno())
		}
	}
	return nil
}

// --- lock manager + OLTP (Table 6) --------------------------------------------

// ensureTable opens the shared data file once per instance.
func (a *App) ensureTable() int64 {
	if a.tableFD == 0 {
		a.tableFD = a.Th.Open("/var/db/table.MYD", libsim.O_RDONLY)
	}
	return a.tableFD
}

// LockCheck performs the fcntl(F_GETLK) handshake the OLTP path issues
// per transaction.
func (a *App) LockCheck() error {
	t := a.Th
	a.C.Cov.Hit("main.lock")
	fd := a.ensureTable()

	pop := a.atLine("lock_manager", "lm_fcntl", HandlerFile, 900)
	rc := t.Fcntl(fd, libsim.F_GETLK, 0)
	pop()
	if rc < 0 {
		a.C.Cov.Hit("rec.lm_fcntl")
		return fmt.Errorf("lock: fcntl: %v", t.Errno())
	}
	pop = a.atLine("lock_manager", "lm_fcntl2", HandlerFile, 910)
	rc = t.Fcntl(fd, libsim.F_SETLK, 0)
	pop()
	if rc == -1 {
		a.C.Cov.Hit("rec.lm_fcntl2")
		return fmt.Errorf("lock: fcntl setlk: %v", t.Errno())
	}
	return nil
}

// Txn executes one OLTP transaction: lock check, reads, and (for
// read-write) an update.
func (a *App) Txn(readWrite bool) error {
	t := a.Th
	a.C.Cov.Hit("main.txn")
	a.threadCount++
	defer func() { a.threadCount-- }()

	if err := a.LockCheck(); err != nil {
		return err
	}
	fd := a.ensureTable()
	t.Lseek(fd, 0)
	buf := a.txnBuf[:]
	pop := a.atLine("oltp_txn", "tx_read", HandlerFile, 950)
	n := t.Read(fd, buf)
	pop()
	if n == -1 {
		a.C.Cov.Hit("rec.tx_read")
		return fmt.Errorf("txn: read: %v", t.Errno())
	}
	if readWrite {
		wfd := t.Open("/var/db/txn.log", libsim.O_CREAT|libsim.O_WRONLY|libsim.O_APPEND)
		if wfd >= 0 {
			pop = a.atLine("oltp_txn", "tx_write", HandlerFile, 960)
			if t.Write(wfd, updateRec) < 0 {
				a.C.Cov.Hit("rec.tx_write")
			}
			pop()
			t.Close(wfd)
		}
	}
	a.txnCount++
	return nil
}

// TxnCount returns the number of committed transactions.
func (a *App) TxnCount() int64 { return a.txnCount }

// SetShutdown flips the shutdown_in_progress global.
func (a *App) SetShutdown(v bool) {
	if v {
		a.shutdownInProgress = 1
	} else {
		a.shutdownInProgress = 0
	}
}

// BufferPoolInit allocates the two buffer-pool segments.
func (a *App) BufferPoolInit() error {
	t := a.Th
	a.C.Cov.Hit("main.bufpool")
	for i, label := range bufpoolLabels {
		pop := a.atLine("buffer_pool_init", label, HandlerFile, 100)
		p := t.Malloc(4096)
		pop()
		if p == 0 {
			a.C.Cov.Hit(bufpoolRecIDs[i])
			return fmt.Errorf("bufpool: out of memory")
		}
		t.Free(p)
	}
	return nil
}

// MergeBig is the merge-big test-suite component of Table 2: six
// iterations, each flushing the handler caches (three closes in
// sql/handler.cc) and then creating a table via MiCreate. A failed flush
// aborts the run — "execution does not reach the intended target".
func (a *App) MergeBig() error {
	for i := range mergeNames {
		if err := a.HandlerFlush(); err != nil {
			return err
		}
		m := &mergeNames[i]
		if err := a.miCreate(m.tmp, m.myi); err != nil {
			return err
		}
	}
	return nil
}

// RunSuite is the default test suite.
func (a *App) RunSuite() error {
	if err := a.BufferPoolInit(); err != nil {
		return err
	}
	if err := a.ErrmsgLoad(); err != nil {
		return err
	}
	if err := a.MergeBig(); err != nil {
		return err
	}
	for i := 0; i < 4; i++ {
		if err := a.Txn(i%2 == 0); err != nil {
			return err
		}
	}
	return nil
}
