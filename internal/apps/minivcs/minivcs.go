// Package minivcs is the Git 1.6.5.4 stand-in: a scaled-down version
// control system with an object store, an index, an xdiff-style merge
// engine, and external-command invocation, written against the simulated
// C library.
//
// It carries the Git bugs of Table 1, each in the control-flow shape the
// paper describes:
//
//   - data loss from running an external command with an incomplete
//     environment after a failed setenv;
//   - crash from calling readdir with the NULL pointer returned by a
//     previously failed (and unchecked) opendir;
//   - three crashes from unchecked mallocs in xdiff/xmerge.c (lines 567
//     and 571) and xdiff/xpatience.c (line 191).
//
// The same call-site models compile (package asm) into the minivcs
// program binary that the call-site analyzer inspects; the virtual stack
// frames pushed at runtime carry the binary's call-site offsets, so
// analyzer-generated call-stack triggers match the running program.
package minivcs

import (
	"fmt"
	"sync"

	"lfi/internal/asm"
	"lfi/internal/coverage"
	"lfi/internal/isa"
	"lfi/internal/libsim"
)

// Module is the binary/module name used in stack frames and scenarios.
const Module = "minivcs"

// Sites is the ground-truth call-site model: one entry per library call
// the application makes, with the checking style its code implements.
// This single table drives both the synthetic binary (analyzer input)
// and, by construction, the Go code paths below.
func Sites() []asm.FuncSpec {
	return []asm.FuncSpec{
		{Name: "cmd_update_index", Sites: []asm.SiteSpec{
			{Label: "ui_open", Callee: "open", Style: asm.CheckIneq},
			{Label: "ui_read", Callee: "read", Style: asm.CheckEq, Codes: []int64{-1}}, // partial: EOF (0) unhandled
			{Label: "ui_close", Callee: "close", Style: asm.CheckIneq},
		}},
		{Name: "refresh_cache", Sites: []asm.SiteSpec{
			{Label: "rc_opendir", Callee: "opendir", Style: asm.CheckNone}, // BUG: readdir(NULL)
			{Label: "rc_close", Callee: "close", Style: asm.CheckIneq},
		}},
		{Name: "xdl_do_merge", Sites: []asm.SiteSpec{
			{Label: "xm_malloc_567", Callee: "malloc", Style: asm.CheckNone}, // BUG: xmerge.c:567
			{Label: "xm_malloc_571", Callee: "malloc", Style: asm.CheckNone}, // BUG: xmerge.c:571
			{Label: "xm_malloc_ok", Callee: "malloc", Style: asm.CheckEqZero},
		}},
		{Name: "xdl_patience", Sites: []asm.SiteSpec{
			{Label: "xp_malloc_191", Callee: "malloc", Style: asm.CheckNone}, // BUG: xpatience.c:191
			{Label: "xp_malloc_ok", Callee: "malloc", Style: asm.CheckEqZero},
		}},
		{Name: "run_external", Sites: []asm.SiteSpec{
			{Label: "re_setenv_dir", Callee: "setenv", Style: asm.CheckNone}, // BUG: incomplete env
			{Label: "re_setenv_work", Callee: "setenv", Style: asm.CheckIneq},
		}},
		{Name: "object_store_write", Sites: []asm.SiteSpec{
			{Label: "os_malloc", Callee: "malloc", Style: asm.CheckEqZero},
			{Label: "os_open", Callee: "open", Style: asm.CheckIneq},
			{Label: "os_write", Callee: "write", Style: asm.CheckIneq},
			{Label: "os_close1", Callee: "close", Style: asm.CheckIneq},
		}},
		{Name: "object_store_read", Sites: []asm.SiteSpec{
			{Label: "or_open", Callee: "open", Style: asm.CheckIneq},
			{Label: "or_read", Callee: "read", Style: asm.CheckEq, Codes: []int64{-1, 0}},
			{Label: "or_close", Callee: "close", Style: asm.CheckIneqViaCopy},
			{Label: "or_readlink", Callee: "readlink", Style: asm.CheckEq, Codes: []int64{-1}},
		}},
		{Name: "gc_prune", Sites: []asm.SiteSpec{
			{Label: "gc_opendir", Callee: "opendir", Style: asm.CheckEqZero},
			{Label: "gc_unlink", Callee: "unlink", Style: asm.CheckIneq},
			{Label: "gc_close2", Callee: "close", Style: asm.CheckEqViaCopy, Codes: []int64{-1}},
			{Label: "gc_close3", Callee: "close", Style: asm.CheckIneq},
		}},
	}
}

var (
	binOnce sync.Once
	bin     *isa.Binary
	offs    map[string]uint64
)

// Binary returns the compiled minivcs program image and its site-label →
// offset map (memoized; the build is deterministic).
func Binary() (*isa.Binary, map[string]uint64) {
	binOnce.Do(func() {
		var err error
		bin, offs, err = asm.Program(Module, Sites())
		if err != nil {
			panic("minivcs: " + err.Error())
		}
	})
	return bin, offs
}

// App is one running minivcs instance.
type App struct {
	C  *libsim.C
	Th *libsim.Thread

	suite func() error // bound RunSuite, reused across pooled runs
}

// New stages a repository fixture and returns a ready instance.
func New() *App {
	c := libsim.New(1 << 22)
	c.Cov = coverage.NewRecorder(Blocks)
	a := &App{C: c, Th: c.NewThread(Module, "main")}
	c.Owner = a
	a.suite = a.RunSuite
	c.MustMkdirAll("/repo/.git/objects")
	c.MustMkdirAll("/repo/.git/refs")
	c.MustWriteFile("/repo/.git/index", []byte("DIRC0001 file-a file-b file-c"))
	c.MustWriteFile("/repo/file-a", []byte("alpha contents\n"))
	c.MustWriteFile("/repo/file-b", []byte("bravo contents\n"))
	c.MustWriteFile("/repo/link-x.lnk", []byte("file-a"))
	c.SnapshotFS()
	return a
}

// Reset rewinds the instance to its post-New state for reuse by a
// pooled target: process image restored (repository fixture, heap,
// handles, dispatcher counters), thread rewound, coverage hits cleared.
func (a *App) Reset() {
	a.C.Reset()
	a.Th.Reset()
}

// at pushes the virtual stack frame for one modelled call site.
func (a *App) at(fn, label string) func() {
	_, offsets := Binary()
	return a.Th.Enter(Module, fn, offsets[label])
}

// atLine is at with DWARF-style file/line info, used for the xdiff sites
// the paper identifies by source location.
func (a *App) atLine(fn, label, file string, line int) func() {
	_, offsets := Binary()
	return a.Th.EnterAt(Module, fn, offsets[label], file, line)
}

// Blocks is minivcs's coverage universe.
var Blocks = coverage.NewIndex([]coverage.Block{
	// Mainline blocks. LOC weights are sized so that recovery code is
	// a few percent of the program, as in Git: the Table 3 experiment
	// needs total coverage to move by ~1 point while recovery
	// coverage moves by tens of points.
	{ID: "main.update_index", LOC: 900},
	{ID: "main.refresh_cache", LOC: 700},
	{ID: "main.merge", LOC: 1800},
	{ID: "main.patience", LOC: 900},
	{ID: "main.run_external", LOC: 500},
	{ID: "main.object_write", LOC: 1100},
	{ID: "main.object_read", LOC: 900},
	{ID: "main.gc", LOC: 800},
	// Recovery blocks (the Table 3 numerator).
	{ID: "rec.ui_open", LOC: 8, Recovery: true},
	{ID: "rec.ui_read", LOC: 6, Recovery: true},
	{ID: "rec.ui_close", LOC: 4, Recovery: true},
	{ID: "rec.rc_close", LOC: 4, Recovery: true},
	{ID: "rec.xm_malloc_ok", LOC: 10, Recovery: true},
	{ID: "rec.xp_malloc_ok", LOC: 9, Recovery: true},
	{ID: "rec.re_setenv_work", LOC: 5, Recovery: true},
	{ID: "rec.os_malloc", LOC: 7, Recovery: true},
	{ID: "rec.os_open", LOC: 8, Recovery: true},
	{ID: "rec.os_write", LOC: 12, Recovery: true},
	{ID: "rec.os_close1", LOC: 4, Recovery: true},
	{ID: "rec.or_open", LOC: 8, Recovery: true},
	{ID: "rec.or_read", LOC: 10, Recovery: true},
	{ID: "rec.or_eof", LOC: 5, Recovery: true},
	{ID: "rec.or_close", LOC: 4, Recovery: true},
	{ID: "rec.or_readlink", LOC: 6, Recovery: true},
	{ID: "rec.gc_opendir", LOC: 7, Recovery: true},
	{ID: "rec.gc_unlink", LOC: 6, Recovery: true},
	{ID: "rec.gc_close2", LOC: 4, Recovery: true},
	{ID: "rec.gc_close3", LOC: 4, Recovery: true},
	// Recovery code the trimmed LFI campaign does not target (keeps
	// the coverage gain below 100%, as in the paper).
	{ID: "rec.pack_mmap", LOC: 22, Recovery: true},
	{ID: "rec.net_push", LOC: 30, Recovery: true},
	{ID: "rec.net_fetch", LOC: 28, Recovery: true},
	{ID: "rec.alternates", LOC: 12, Recovery: true},
	// Cold feature code never exercised by the default suite.
	{ID: "cold.bisect", LOC: 600},
	{ID: "cold.cvsimport", LOC: 700},
	{ID: "cold.svn_bridge", LOC: 534},
})

// --- commands (the Go code paths mirroring the site models) ---------------

// UpdateIndex reads the index file (git update-index).
func (a *App) UpdateIndex() error {
	t := a.Th
	a.C.Cov.Hit("main.update_index")

	pop := a.at("cmd_update_index", "ui_open")
	fd := t.Open("/repo/.git/index", libsim.O_RDONLY)
	pop()
	if fd < 0 { // CheckIneq
		a.C.Cov.Hit("rec.ui_open")
		return fmt.Errorf("update-index: cannot open index: %v", t.Errno())
	}

	buf := make([]byte, 64)
	pop = a.at("cmd_update_index", "ui_read")
	n := t.Read(fd, buf)
	pop()
	if n == -1 { // CheckEq{-1}: EOF (0) is NOT handled — a partial check
		a.C.Cov.Hit("rec.ui_read")
		a.closeQuiet(fd, "cmd_update_index", "ui_close")
		return fmt.Errorf("update-index: read failed: %v", t.Errno())
	}
	_ = buf[:n]

	pop = a.at("cmd_update_index", "ui_close")
	rc := t.Close(fd)
	pop()
	if rc < 0 {
		a.C.Cov.Hit("rec.ui_close")
		return fmt.Errorf("update-index: close failed: %v", t.Errno())
	}
	return nil
}

func (a *App) closeQuiet(fd int64, fn, label string) {
	pop := a.at(fn, label)
	if a.Th.Close(fd) < 0 {
		a.C.Cov.Hit("rec." + label)
	}
	pop()
}

// RefreshCache scans the object directory. The opendir return is not
// checked — Git bug [9]: "crash on make test" via readdir(NULL).
func (a *App) RefreshCache() error {
	t := a.Th
	a.C.Cov.Hit("main.refresh_cache")

	pop := a.at("refresh_cache", "rc_opendir")
	dir := t.Opendir("/repo/.git/objects")
	pop()
	// BUG: no NULL check; a failed opendir hands NULL to readdir.
	count := 0
	for {
		name, ok := t.Readdir(dir)
		if !ok {
			break
		}
		_ = name
		count++
	}
	t.Closedir(dir)

	pop = a.at("refresh_cache", "rc_close")
	// A bookkeeping descriptor; close failure handled.
	fd := t.Open("/repo/.git/index", libsim.O_RDONLY)
	if fd >= 0 {
		if t.Close(fd) < 0 {
			a.C.Cov.Hit("rec.rc_close")
		}
	}
	pop()
	return nil
}

// Merge performs a three-way merge (xdiff/xmerge.c). The first two
// mallocs are unchecked — Git bug [10], lines 567 and 571.
func (a *App) Merge(oursLen, theirsLen int64) error {
	t := a.Th
	a.C.Cov.Hit("main.merge")

	pop := a.atLine("xdl_do_merge", "xm_malloc_567", "xdiff/xmerge.c", 567)
	dest := t.Malloc(oursLen + theirsLen)
	pop()
	// BUG: dest not checked; a failed malloc crashes on first use.
	destBuf := t.Deref(dest)

	pop = a.atLine("xdl_do_merge", "xm_malloc_571", "xdiff/xmerge.c", 571)
	markers := t.Malloc(64)
	pop()
	// BUG: markers not checked either.
	markBuf := t.Deref(markers)

	pop = a.atLine("xdl_do_merge", "xm_malloc_ok", "xdiff/xmerge.c", 602)
	scratch := t.Malloc(128)
	pop()
	if scratch == 0 { // CheckEqZero: proper recovery
		a.C.Cov.Hit("rec.xm_malloc_ok")
		t.Free(dest)
		t.Free(markers)
		return fmt.Errorf("merge: out of memory")
	}

	copy(destBuf, "merged")
	copy(markBuf, "<<<<<<<")
	t.Free(scratch)
	t.Free(markers)
	t.Free(dest)
	return nil
}

// Patience runs the patience-diff preprocessing (xdiff/xpatience.c).
// The histogram allocation is unchecked — Git bug [10], line 191.
func (a *App) Patience(entries int64) error {
	t := a.Th
	a.C.Cov.Hit("main.patience")

	pop := a.atLine("xdl_patience", "xp_malloc_191", "xdiff/xpatience.c", 191)
	table := t.Malloc(entries * 16)
	pop()
	// BUG: table not checked.
	tb := t.Deref(table)
	tb[0] = 1

	pop = a.atLine("xdl_patience", "xp_malloc_ok", "xdiff/xpatience.c", 230)
	aux := t.Malloc(entries * 8)
	pop()
	if aux == 0 {
		a.C.Cov.Hit("rec.xp_malloc_ok")
		t.Free(table)
		return fmt.Errorf("patience: out of memory")
	}
	t.Free(aux)
	t.Free(table)
	return nil
}

// RunExternal prepares the environment and "runs" an external command
// (hooks, editors). GIT_DIR's setenv is unchecked — Git bug [11]: the
// command runs in the wrong environment, losing data.
func (a *App) RunExternal(command string) error {
	t := a.Th
	a.C.Cov.Hit("main.run_external")

	pop := a.at("run_external", "re_setenv_dir")
	t.Setenv("GIT_DIR", "/repo/.git") // BUG: return ignored
	pop()

	pop = a.at("run_external", "re_setenv_work")
	if t.Setenv("GIT_WORK_TREE", "/repo") < 0 {
		pop()
		a.C.Cov.Hit("rec.re_setenv_work")
		return fmt.Errorf("run-external: cannot set GIT_WORK_TREE: %v", t.Errno())
	}
	pop()

	// The external command resolves the repository through GIT_DIR. If
	// the variable is missing it operates on the wrong directory —
	// silent data loss, which the simulation surfaces explicitly.
	if _, ok := t.Getenv("GIT_DIR"); !ok {
		t.RaiseCrash(libsim.DataLoss,
			"external command %q ran with incomplete environment (GIT_DIR unset)", command)
	}
	return nil
}

// StoreObject writes one object into the object store.
func (a *App) StoreObject(name string, data []byte) error {
	t := a.Th
	a.C.Cov.Hit("main.object_write")

	pop := a.at("object_store_write", "os_malloc")
	buf := t.Malloc(int64(len(data)) + 16)
	pop()
	if buf == 0 {
		a.C.Cov.Hit("rec.os_malloc")
		return fmt.Errorf("object-store: out of memory")
	}
	defer t.Free(buf)
	copy(t.Deref(buf), data)

	path := "/repo/.git/objects/" + name
	pop = a.at("object_store_write", "os_open")
	fd := t.Open(path, libsim.O_CREAT|libsim.O_WRONLY|libsim.O_TRUNC)
	pop()
	if fd < 0 {
		a.C.Cov.Hit("rec.os_open")
		return fmt.Errorf("object-store: open %s: %v", path, t.Errno())
	}

	pop = a.at("object_store_write", "os_write")
	n := t.Write(fd, data)
	pop()
	if n < 0 {
		a.C.Cov.Hit("rec.os_write")
		a.closeQuiet(fd, "object_store_write", "os_close1")
		return fmt.Errorf("object-store: write: %v", t.Errno())
	}

	pop = a.at("object_store_write", "os_close1")
	rc := t.Close(fd)
	pop()
	if rc < 0 {
		a.C.Cov.Hit("rec.os_close1")
		return fmt.Errorf("object-store: close: %v", t.Errno())
	}
	return nil
}

// LoadObject reads one object back.
func (a *App) LoadObject(name string) ([]byte, error) {
	t := a.Th
	a.C.Cov.Hit("main.object_read")

	pop := a.at("object_store_read", "or_open")
	fd := t.Open("/repo/.git/objects/"+name, libsim.O_RDONLY)
	pop()
	if fd < 0 {
		a.C.Cov.Hit("rec.or_open")
		return nil, fmt.Errorf("object-store: open %s: %v", name, t.Errno())
	}

	buf := make([]byte, 256)
	pop = a.at("object_store_read", "or_read")
	n := t.Read(fd, buf)
	pop()
	switch {
	case n == -1: // full CheckEq{-1,0}
		a.C.Cov.Hit("rec.or_read")
		a.closeQuiet(fd, "object_store_read", "or_close")
		return nil, fmt.Errorf("object-store: read: %v", t.Errno())
	case n == 0:
		a.C.Cov.Hit("rec.or_eof")
		a.closeQuiet(fd, "object_store_read", "or_close")
		return nil, fmt.Errorf("object-store: object %s empty", name)
	}

	pop = a.at("object_store_read", "or_close")
	rc := t.Close(fd)
	pop()
	if rc < 0 {
		a.C.Cov.Hit("rec.or_close")
	}

	lbuf := make([]byte, 64)
	pop = a.at("object_store_read", "or_readlink")
	ln := t.Readlink("/repo/link-x", lbuf)
	pop()
	if ln == -1 {
		a.C.Cov.Hit("rec.or_readlink")
	}
	return buf[:n], nil
}

// GC prunes loose objects.
func (a *App) GC() error {
	t := a.Th
	a.C.Cov.Hit("main.gc")

	pop := a.at("gc_prune", "gc_opendir")
	dir := t.Opendir("/repo/.git/objects")
	pop()
	if dir == 0 { // CheckEqZero: proper recovery, unlike refresh_cache
		a.C.Cov.Hit("rec.gc_opendir")
		return fmt.Errorf("gc: opendir: %v", t.Errno())
	}
	var victims []string
	for {
		name, ok := t.Readdir(dir)
		if !ok {
			break
		}
		if len(name) > 4 && name[:4] == "tmp_" {
			victims = append(victims, name)
		}
	}
	t.Closedir(dir)

	for _, v := range victims {
		pop = a.at("gc_prune", "gc_unlink")
		rc := t.Unlink("/repo/.git/objects/" + v)
		pop()
		if rc < 0 {
			a.C.Cov.Hit("rec.gc_unlink")
		}
	}

	// Two audit descriptors with copy-style close checks.
	fd := t.Open("/repo/.git/index", libsim.O_RDONLY)
	if fd >= 0 {
		pop = a.at("gc_prune", "gc_close2")
		rc := t.Close(fd)
		pop()
		if rc == -1 {
			a.C.Cov.Hit("rec.gc_close2")
		}
	}
	fd = t.Open("/repo/file-a", libsim.O_RDONLY)
	if fd >= 0 {
		pop = a.at("gc_prune", "gc_close3")
		rc := t.Close(fd)
		pop()
		if rc < 0 {
			a.C.Cov.Hit("rec.gc_close3")
		}
	}
	return nil
}

// RunSuite is the default test suite ("make test"): it exercises every
// command once with benign inputs.
func (a *App) RunSuite() error {
	if err := a.UpdateIndex(); err != nil {
		return err
	}
	if err := a.RefreshCache(); err != nil {
		return err
	}
	if err := a.Merge(64, 64); err != nil {
		return err
	}
	if err := a.Patience(16); err != nil {
		return err
	}
	if err := a.RunExternal("hook/post-commit"); err != nil {
		return err
	}
	if err := a.StoreObject("tmp_obj1", []byte("blob 14")); err != nil {
		return err
	}
	if _, err := a.LoadObject("tmp_obj1"); err != nil {
		return err
	}
	return a.GC()
}
