// Package miniweb is the Apache 2.2.14 stand-in used by the Table 5
// precision/performance study: a small web server whose request path
// issues apr_file_read calls at high frequency, under both a cheap
// static-HTML workload and a computation-heavy "PHP" workload.
//
// The Table 5 measurement paths themselves carry no injected faults
// (the paper did not inject while measuring overhead), but the server
// seeds two Apache-class recovery bugs for the fault-space explorer:
//
//   - the access-log writer never checks fopen's return, so a failed
//     open crashes the following fwrite on a NULL stream (the classic
//     unchecked-log-open bug family of Table 1);
//   - the static handler's read-error recovery releases "all" request
//     resources, including the worker mutex the deferred cleanup also
//     releases — error-checking mutexes abort on the double unlock.
//
// Both are dormant under the no-injection workloads, so the Table 5
// numbers are unaffected.
package miniweb

import (
	"fmt"
	"sync"

	"lfi/internal/asm"
	"lfi/internal/coverage"
	"lfi/internal/isa"
	"lfi/internal/libsim"
)

// Module is the binary/module name used in stack frames and scenarios.
const Module = "miniweb"

// Request method numbers, following Apache's request_rec.method_number.
const (
	MethodGET  = 0
	MethodPOST = 2
)

// Sites is the ground-truth call-site model.
func Sites() []asm.FuncSpec {
	return []asm.FuncSpec{
		{Name: "default_handler", Sites: []asm.SiteSpec{
			{Label: "dh_open", Callee: "open", Style: asm.CheckIneq},
			{Label: "dh_apr_read", Callee: "apr_file_read", Style: asm.CheckIneq},
			{Label: "dh_close", Callee: "close", Style: asm.CheckIneq},
		}},
		{Name: "php_handler", Sites: []asm.SiteSpec{
			{Label: "ph_open", Callee: "open", Style: asm.CheckIneq},
			{Label: "ph_apr_read", Callee: "apr_file_read", Style: asm.CheckIneq},
			{Label: "ph_close", Callee: "close", Style: asm.CheckIneq},
		}},
		{Name: "log_transaction", Sites: []asm.SiteSpec{
			// BUG: the access-log fopen is unchecked; the fwrite below
			// crashes on the NULL stream when it fails.
			{Label: "lt_fopen", Callee: "fopen", Style: asm.CheckNone},
			{Label: "lt_fwrite", Callee: "fwrite", Style: asm.CheckEq, Codes: []int64{0}},
		}},
	}
}

var (
	binOnce sync.Once
	bin     *isa.Binary
	offs    map[string]uint64
)

// Binary returns the compiled miniweb program image and site offsets.
func Binary() (*isa.Binary, map[string]uint64) {
	binOnce.Do(func() {
		var err error
		bin, offs, err = asm.Program(Module, Sites())
		if err != nil {
			panic("miniweb: " + err.Error())
		}
	})
	return bin, offs
}

// Blocks is miniweb's coverage universe.
var Blocks = coverage.NewIndex([]coverage.Block{
	{ID: "main.static", LOC: 40},
	{ID: "main.php", LOC: 60},
	{ID: "main.log", LOC: 14},
	{ID: "rec.dh_open", LOC: 6, Recovery: true},
	{ID: "rec.dh_apr_read", LOC: 8, Recovery: true},
	{ID: "rec.ph_open", LOC: 6, Recovery: true},
	{ID: "rec.ph_apr_read", LOC: 8, Recovery: true},
	{ID: "rec.lt_fwrite", LOC: 5, Recovery: true},
})

// App is one running miniweb instance.
type App struct {
	C  *libsim.C
	Th *libsim.Thread

	methodNumber int64
	served       int64
	mutex        int64

	suite func() error // bound RunSuite, reused across pooled runs
}

// New stages the document root and returns a ready instance.
func New() *App {
	c := libsim.New(1 << 22)
	c.Cov = coverage.NewRecorder(Blocks)
	a := &App{C: c, Th: c.NewThread(Module, "main")}
	c.Owner = a
	a.suite = a.RunSuite
	a.mutex = c.MutexInit()
	c.MustMkdirAll("/www")
	c.MustMkdirAll("/var/log")
	page := make([]byte, 16384)
	for i := range page {
		page[i] = byte('a' + i%26)
	}
	c.MustWriteFile("/www/index.html", page)
	c.MustWriteFile("/www/app.php", []byte("<?php compute(); ?>"))
	c.SnapshotFS()
	c.RegisterVar("method_number", func() int64 { return a.methodNumber })
	return a
}

// Reset rewinds the instance to its post-New state for reuse by a
// pooled target. The worker mutex is freshly created rather than
// recycled — a crashed run can abandon the old one in a locked state.
func (a *App) Reset() {
	a.C.Reset()
	a.Th.Reset()
	a.mutex = a.C.MutexInit()
	a.methodNumber = 0
	a.served = 0
}

func (a *App) at(fn, label string) func() {
	_, offsets := Binary()
	return a.Th.Enter(Module, fn, offsets[label])
}

// ServeStatic handles one static-HTML request: open the file, read it
// through apr_file_read in 1 KB chunks, close it. The request path runs
// inside an ap_process_request_internal frame, which the Table 5
// call-stack trigger matches, and holds the worker mutex during reads
// for the custom WithMutex trigger.
func (a *App) ServeStatic(path string, method int64) error {
	t := a.Th
	a.C.Cov.Hit("main.static")
	a.methodNumber = method
	popReq := t.Enter(Module, "ap_process_request_internal", 0)
	defer popReq()

	pop := a.at("default_handler", "dh_open")
	fd := t.Open(path, libsim.O_RDONLY)
	pop()
	if fd < 0 {
		a.C.Cov.Hit("rec.dh_open")
		return fmt.Errorf("static: open %s: %v", path, t.Errno())
	}
	defer func() {
		pop := a.at("default_handler", "dh_close")
		t.Close(fd)
		pop()
	}()

	t.MutexLock(a.mutex)
	defer t.MutexUnlock(a.mutex)

	buf := make([]byte, 1024)
	for {
		var n int64
		pop := a.at("default_handler", "dh_apr_read")
		st := t.APRFileRead(fd, buf, &n)
		pop()
		if st != 0 {
			// BUG: the error path tears down "all" request resources,
			// including the worker mutex the deferred cleanup below
			// also releases — a double unlock, which error-checking
			// mutexes turn into an abort (the mi_create bug family).
			a.C.Cov.Hit("rec.dh_apr_read")
			t.MutexUnlock(a.mutex)
			return fmt.Errorf("static: apr_file_read: status %d", st)
		}
		if n == 0 {
			break
		}
	}
	a.served++
	return nil
}

// ServePHP handles one dynamic request: a read followed by
// computational work (the paper's PHP workload is CPU-heavy, with fewer
// library calls per unit time).
func (a *App) ServePHP(path string, method int64) error {
	t := a.Th
	a.C.Cov.Hit("main.php")
	a.methodNumber = method
	popReq := t.Enter(Module, "ap_process_request_internal", 0)
	defer popReq()

	pop := a.at("php_handler", "ph_open")
	fd := t.Open(path, libsim.O_RDONLY)
	pop()
	if fd < 0 {
		a.C.Cov.Hit("rec.ph_open")
		return fmt.Errorf("php: open %s: %v", path, t.Errno())
	}
	defer func() {
		pop := a.at("php_handler", "ph_close")
		t.Close(fd)
		pop()
	}()

	buf := make([]byte, 256)
	var n int64
	pop = a.at("php_handler", "ph_apr_read")
	st := t.APRFileRead(fd, buf, &n)
	pop()
	if st != 0 {
		a.C.Cov.Hit("rec.ph_apr_read")
		return fmt.Errorf("php: apr_file_read: status %d", st)
	}

	// Interpret the "script": a pure-CPU hash loop.
	var h uint64 = 14695981039346656037
	for round := 0; round < 2000; round++ {
		for _, b := range buf[:n] {
			h = (h ^ uint64(b)) * 1099511628211
		}
	}
	if h == 0 {
		return fmt.Errorf("php: impossible hash")
	}
	a.served++
	return nil
}

// LogTransaction appends one access-log line, mod_log_config style.
// BUG: the fopen return is never checked; when the log cannot be
// opened, the fwrite crashes on the NULL stream.
func (a *App) LogTransaction(line string) {
	t := a.Th
	a.C.Cov.Hit("main.log")
	pop := a.at("log_transaction", "lt_fopen")
	fp := t.Fopen("/var/log/access_log", "a")
	pop()
	// BUG: fp not checked.
	pop = a.at("log_transaction", "lt_fwrite")
	n := t.Fwrite([]byte(line+"\n"), fp)
	pop()
	if n == 0 {
		a.C.Cov.Hit("rec.lt_fwrite")
	}
	t.Fclose(fp)
}

// Served returns the number of completed requests.
func (a *App) Served() int64 { return a.served }

// RunAB replays the Apache-benchmark workload: n requests, static or
// PHP, alternating GET/POST so the program-state trigger sees both.
func (a *App) RunAB(n int, php bool) error {
	for i := 0; i < n; i++ {
		method := int64(MethodGET)
		if i%4 == 3 {
			method = MethodPOST
		}
		var err error
		if php {
			err = a.ServePHP("/www/app.php", method)
		} else {
			err = a.ServeStatic("/www/index.html", method)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// RunSuite is the default test suite the explorer drives: a handful of
// logged static and PHP requests, enough to execute every modelled call
// site at least once.
func (a *App) RunSuite() error {
	for i := 0; i < 3; i++ {
		method := int64(MethodGET)
		if i%2 == 1 {
			method = MethodPOST
		}
		if err := a.ServeStatic("/www/index.html", method); err != nil {
			return err
		}
		a.LogTransaction(fmt.Sprintf("GET /index.html %d", i))
	}
	if err := a.ServePHP("/www/app.php", MethodGET); err != nil {
		return err
	}
	a.LogTransaction("GET /app.php")
	return nil
}
