// Package minidns is the BIND 9.6.1 stand-in: a small authoritative DNS
// server with zone loading, query serving, an XML statistics channel,
// and a DST (crypto key) subsystem, written against the simulated C
// library.
//
// It carries the BIND bugs of Table 1:
//
//   - crash when xmlNewTextWriterDoc fails while a user retrieves
//     statistics over HTTP (the return value is never checked, and the
//     NULL writer is dereferenced) [4];
//   - abort in dst_lib_init: the malloc return IS checked, but the
//     recovery code calls dst_lib_destroy before the dst_initialized
//     flag is set, tripping destroy's first assertion [3].
//
// The zone loader's open call is checked through a jump table
// (CheckHiddenIndirect); the call-site analyzer cannot see that check
// and reports the site unchecked — the single false positive in the
// BIND/open row of Table 4. Injection then verifies the site is in fact
// robust.
package minidns

import (
	"fmt"
	"strings"
	"sync"

	"lfi/internal/asm"
	"lfi/internal/coverage"
	"lfi/internal/isa"
	"lfi/internal/libsim"
)

// Module is the binary/module name used in stack frames and scenarios.
const Module = "minidns"

// Sites is the ground-truth call-site model (see minivcs for the
// convention).
func Sites() []asm.FuncSpec {
	return []asm.FuncSpec{
		{Name: "statschannel_render", Sites: []asm.SiteSpec{
			{Label: "sc_xmlnew", Callee: "xmlNewTextWriterDoc", Style: asm.CheckNone}, // BUG [4]
			{Label: "sc_xmlwrite", Callee: "xmlTextWriterWriteElement", Style: asm.CheckEq, Codes: []int64{-1}},
		}},
		{Name: "dst_lib_init", Sites: []asm.SiteSpec{
			{Label: "dst_malloc_key", Callee: "malloc", Style: asm.CheckEqZero}, // checked; recovery buggy [3]
			{Label: "dst_malloc_ctx", Callee: "malloc", Style: asm.CheckEqZero},
		}},
		{Name: "load_zone", Sites: []asm.SiteSpec{
			{Label: "lz_open", Callee: "open", Style: asm.CheckHiddenIndirect, Codes: []int64{-1}}, // Table 4 FP
			{Label: "lz_read", Callee: "read", Style: asm.CheckEq, Codes: []int64{-1, 0}},
			{Label: "lz_close", Callee: "close", Style: asm.CheckIneq},
		}},
		{Name: "journal_rollforward", Sites: []asm.SiteSpec{
			{Label: "jr_open", Callee: "open", Style: asm.CheckIneq},
			{Label: "jr_read", Callee: "read", Style: asm.CheckEq, Codes: []int64{-1}}, // partial
			{Label: "jr_unlink", Callee: "unlink", Style: asm.CheckIneq},
			{Label: "jr_close", Callee: "close", Style: asm.CheckIneq},
		}},
		{Name: "cache_alloc", Sites: []asm.SiteSpec{
			{Label: "ca_malloc1", Callee: "malloc", Style: asm.CheckEqZero},
			{Label: "ca_malloc2", Callee: "malloc", Style: asm.CheckEqViaCopy, Codes: []int64{0}},
			{Label: "ca_malloc3", Callee: "malloc", Style: asm.CheckEqZero},
		}},
		{Name: "dump_stats_file", Sites: []asm.SiteSpec{
			{Label: "df_fopen", Callee: "fopen", Style: asm.CheckEqZero},
			{Label: "df_fwrite", Callee: "fwrite", Style: asm.CheckEq, Codes: []int64{0}},
			{Label: "df_fclose", Callee: "fclose", Style: asm.CheckIneq},
			{Label: "df_unlink", Callee: "unlink", Style: asm.CheckIneqViaCopy},
		}},
		{Name: "shutdown_server", Sites: []asm.SiteSpec{
			{Label: "sd_close1", Callee: "close", Style: asm.CheckIneq},
			{Label: "sd_close2", Callee: "close", Style: asm.CheckIneq},
			{Label: "sd_close3", Callee: "close", Style: asm.CheckEqViaCopy, Codes: []int64{-1}},
		}},
		{Name: "reload_config", Sites: []asm.SiteSpec{
			{Label: "cf_open1", Callee: "open", Style: asm.CheckIneq},
			{Label: "cf_open2", Callee: "open", Style: asm.CheckEq, Codes: []int64{-1}},
			{Label: "cf_open3", Callee: "open", Style: asm.CheckEqViaCopy, Codes: []int64{-1}},
			{Label: "cf_open4", Callee: "open", Style: asm.CheckIneqViaCopy, Filler: 6},
			{Label: "cf_close", Callee: "close", Style: asm.CheckIneq},
		}},
	}
}

var (
	binOnce sync.Once
	bin     *isa.Binary
	offs    map[string]uint64
)

// Binary returns the compiled minidns program image and site offsets.
func Binary() (*isa.Binary, map[string]uint64) {
	binOnce.Do(func() {
		var err error
		bin, offs, err = asm.Program(Module, Sites())
		if err != nil {
			panic("minidns: " + err.Error())
		}
	})
	return bin, offs
}

// App is one running minidns instance.
type App struct {
	C  *libsim.C
	Th *libsim.Thread

	zones          map[string]string // name -> address
	queriesServed  int64
	dstInitialized bool
	dstKeyBuf      int64
	dstCtxBuf      int64

	suite func() error // bound RunSuite, reused across pooled runs
}

// New stages zone fixtures and returns a ready instance.
func New() *App {
	c := libsim.New(1 << 22)
	c.Cov = coverage.NewRecorder(Blocks)
	a := &App{
		C:     c,
		Th:    c.NewThread(Module, "main"),
		zones: make(map[string]string),
	}
	c.Owner = a
	a.suite = a.RunSuite
	c.MustMkdirAll("/etc/named")
	c.MustWriteFile("/etc/named/example.zone",
		[]byte("www.example.com=10.0.0.1;mail.example.com=10.0.0.2"))
	c.MustWriteFile("/etc/named/journal", []byte("ixfr-delta-1"))
	c.SnapshotFS()
	c.RegisterVar("queries_served", func() int64 { return a.queriesServed })
	return a
}

// Reset rewinds the instance to its post-New state for reuse by a
// pooled target: process image restored (zone fixtures, heap, handles,
// dispatcher counters), thread rewound, coverage hits cleared, app
// state zeroed.
func (a *App) Reset() {
	a.C.Reset()
	a.Th.Reset()
	clear(a.zones)
	a.queriesServed = 0
	a.dstInitialized = false
	a.dstKeyBuf = 0
	a.dstCtxBuf = 0
}

func (a *App) at(fn, label string) func() {
	_, offsets := Binary()
	return a.Th.Enter(Module, fn, offsets[label])
}

// Blocks is minidns's coverage universe.
var Blocks = coverage.NewIndex([]coverage.Block{
	// Mainline blocks, weighted like BIND so that recovery code is a
	// small share of the program (see the minivcs note).
	{ID: "main.stats", LOC: 700},
	{ID: "main.dst_init", LOC: 500},
	{ID: "main.load_zone", LOC: 1100},
	{ID: "main.journal", LOC: 700},
	{ID: "main.cache", LOC: 500},
	{ID: "main.dump", LOC: 600},
	{ID: "main.query", LOC: 700},
	{ID: "main.shutdown", LOC: 500},
	{ID: "main.reload", LOC: 700},
	// Recovery blocks.
	{ID: "rec.sc_xmlwrite", LOC: 6, Recovery: true},
	{ID: "rec.dst_malloc_key", LOC: 8, Recovery: true},
	{ID: "rec.dst_malloc_ctx", LOC: 8, Recovery: true},
	{ID: "rec.lz_open", LOC: 10, Recovery: true},
	{ID: "rec.lz_read", LOC: 8, Recovery: true},
	{ID: "rec.lz_eof", LOC: 4, Recovery: true},
	{ID: "rec.lz_close", LOC: 4, Recovery: true},
	{ID: "rec.jr_open", LOC: 8, Recovery: true},
	{ID: "rec.jr_read", LOC: 6, Recovery: true},
	{ID: "rec.jr_unlink", LOC: 5, Recovery: true},
	{ID: "rec.jr_close", LOC: 4, Recovery: true},
	{ID: "rec.ca_malloc1", LOC: 6, Recovery: true},
	{ID: "rec.ca_malloc2", LOC: 6, Recovery: true},
	{ID: "rec.ca_malloc3", LOC: 6, Recovery: true},
	{ID: "rec.df_fopen", LOC: 7, Recovery: true},
	{ID: "rec.df_fwrite", LOC: 9, Recovery: true},
	{ID: "rec.df_fclose", LOC: 4, Recovery: true},
	{ID: "rec.df_unlink", LOC: 5, Recovery: true},
	{ID: "rec.sd_close1", LOC: 3, Recovery: true},
	{ID: "rec.sd_close2", LOC: 3, Recovery: true},
	{ID: "rec.sd_close3", LOC: 3, Recovery: true},
	{ID: "rec.cf_open", LOC: 8, Recovery: true},
	{ID: "rec.cf_close", LOC: 3, Recovery: true},
	// Recovery outside the trimmed campaign's reach.
	{ID: "rec.tsig_verify", LOC: 14, Recovery: true},
	{ID: "rec.notify_send", LOC: 12, Recovery: true},
	{ID: "rec.axfr_stream", LOC: 16, Recovery: true},
	// Cold features.
	{ID: "cold.dnssec_sign", LOC: 1600},
	{ID: "cold.lwres", LOC: 1000},
	{ID: "cold.dlz_backend", LOC: 1028},
})

// --- subsystems -------------------------------------------------------------

// StatsChannel renders server statistics as XML for the HTTP channel.
// BUG [4]: xmlNewTextWriterDoc's return is not checked.
func (a *App) StatsChannel() (string, error) {
	t := a.Th
	a.C.Cov.Hit("main.stats")

	pop := a.at("statschannel_render", "sc_xmlnew")
	w := t.XMLNewTextWriterDoc()
	pop()
	// BUG: no NULL check; the write below crashes when allocation failed.
	pop = a.at("statschannel_render", "sc_xmlwrite")
	rc := t.XMLTextWriterWriteElement(w, "queries", fmt.Sprint(a.queriesServed))
	pop()
	if rc == -1 {
		a.C.Cov.Hit("rec.sc_xmlwrite")
		t.XMLFreeTextWriter(w)
		return "", fmt.Errorf("stats: xml write failed")
	}
	return t.XMLFreeTextWriter(w), nil
}

// DstLibDestroy tears down the DST subsystem. Its first statement is an
// assertion that the subsystem was initialized — exactly BIND's
// dst_lib_destroy.
func (a *App) DstLibDestroy() {
	t := a.Th
	t.Assert(a.dstInitialized, "dst != NULL && dst_initialized")
	if a.dstKeyBuf != 0 {
		t.Free(a.dstKeyBuf)
		a.dstKeyBuf = 0
	}
	if a.dstCtxBuf != 0 {
		t.Free(a.dstCtxBuf)
		a.dstCtxBuf = 0
	}
	a.dstInitialized = false
}

// DstLibInit initializes the DST subsystem. BUG [3]: the malloc returns
// are checked, but the recovery path calls DstLibDestroy before
// dst_initialized is set, tripping the assertion (abort).
func (a *App) DstLibInit() error {
	t := a.Th
	a.C.Cov.Hit("main.dst_init")

	pop := a.at("dst_lib_init", "dst_malloc_key")
	a.dstKeyBuf = t.Malloc(512)
	pop()
	if a.dstKeyBuf == 0 {
		a.C.Cov.Hit("rec.dst_malloc_key")
		a.DstLibDestroy() // BUG: flag not yet set -> assertion aborts
		return fmt.Errorf("dst: out of memory")
	}

	pop = a.at("dst_lib_init", "dst_malloc_ctx")
	a.dstCtxBuf = t.Malloc(256)
	pop()
	if a.dstCtxBuf == 0 {
		// Correct recovery: release what was allocated directly,
		// without going through the assertion-guarded destroy.
		a.C.Cov.Hit("rec.dst_malloc_ctx")
		t.Free(a.dstKeyBuf)
		a.dstKeyBuf = 0
		return fmt.Errorf("dst: out of memory")
	}

	a.dstInitialized = true
	return nil
}

// LoadZone parses one zone file. The open check is routed through a
// jump table in the binary (invisible to the analyzer) but is a real
// check: injected open failures are handled gracefully.
func (a *App) LoadZone(path string) error {
	t := a.Th
	a.C.Cov.Hit("main.load_zone")

	pop := a.at("load_zone", "lz_open")
	fd := t.Open(path, libsim.O_RDONLY)
	pop()
	if fd < 0 {
		a.C.Cov.Hit("rec.lz_open")
		return fmt.Errorf("zone: cannot open %s: %v", path, t.Errno())
	}

	buf := make([]byte, 512)
	pop = a.at("load_zone", "lz_read")
	n := t.Read(fd, buf)
	pop()
	if n == -1 {
		a.C.Cov.Hit("rec.lz_read")
		a.closeZone(fd)
		return fmt.Errorf("zone: read %s: %v", path, t.Errno())
	}
	if n == 0 {
		a.C.Cov.Hit("rec.lz_eof")
		a.closeZone(fd)
		return fmt.Errorf("zone: %s is empty", path)
	}
	for _, rr := range strings.Split(string(buf[:n]), ";") {
		if name, addr, ok := strings.Cut(rr, "="); ok {
			a.zones[name] = addr
		}
	}
	a.closeZone(fd)
	return nil
}

func (a *App) closeZone(fd int64) {
	pop := a.at("load_zone", "lz_close")
	if a.Th.Close(fd) < 0 {
		a.C.Cov.Hit("rec.lz_close")
	}
	pop()
}

// JournalRollforward replays the zone journal and truncates it.
func (a *App) JournalRollforward() error {
	t := a.Th
	a.C.Cov.Hit("main.journal")

	pop := a.at("journal_rollforward", "jr_open")
	fd := t.Open("/etc/named/journal", libsim.O_RDONLY)
	pop()
	if fd < 0 {
		a.C.Cov.Hit("rec.jr_open")
		return fmt.Errorf("journal: open: %v", t.Errno())
	}
	buf := make([]byte, 128)
	pop = a.at("journal_rollforward", "jr_read")
	n := t.Read(fd, buf)
	pop()
	if n == -1 { // partial: EOF not distinguished
		a.C.Cov.Hit("rec.jr_read")
		n = 0
	}
	_ = buf[:n]

	pop = a.at("journal_rollforward", "jr_unlink")
	rc := t.Unlink("/etc/named/journal.old")
	pop()
	if rc < 0 {
		a.C.Cov.Hit("rec.jr_unlink")
	}

	pop = a.at("journal_rollforward", "jr_close")
	rc = t.Close(fd)
	pop()
	if rc < 0 {
		a.C.Cov.Hit("rec.jr_close")
	}
	return nil
}

// CacheAlloc grows the answer cache (three checked allocations).
func (a *App) CacheAlloc() error {
	t := a.Th
	a.C.Cov.Hit("main.cache")
	for i, label := range []string{"ca_malloc1", "ca_malloc2", "ca_malloc3"} {
		pop := a.at("cache_alloc", label)
		p := t.Malloc(int64(64 << i))
		pop()
		if p == 0 {
			a.C.Cov.Hit("rec." + label)
			return fmt.Errorf("cache: out of memory (stage %d)", i)
		}
		t.Free(p)
	}
	return nil
}

// DumpStats writes the statistics file (rndc stats).
func (a *App) DumpStats() error {
	t := a.Th
	a.C.Cov.Hit("main.dump")

	pop := a.at("dump_stats_file", "df_fopen")
	fp := t.Fopen("/etc/named/named.stats", "w")
	pop()
	if fp == 0 {
		a.C.Cov.Hit("rec.df_fopen")
		return fmt.Errorf("stats: fopen: %v", t.Errno())
	}
	pop = a.at("dump_stats_file", "df_fwrite")
	n := t.Fwrite([]byte(fmt.Sprintf("queries %d\n", a.queriesServed)), fp)
	pop()
	if n == 0 {
		a.C.Cov.Hit("rec.df_fwrite")
		a.fcloseStats(fp)
		return fmt.Errorf("stats: fwrite failed")
	}
	a.fcloseStats(fp)

	pop = a.at("dump_stats_file", "df_unlink")
	if t.Unlink("/etc/named/named.stats.old") < 0 {
		a.C.Cov.Hit("rec.df_unlink")
	}
	pop()
	return nil
}

func (a *App) fcloseStats(fp int64) {
	pop := a.at("dump_stats_file", "df_fclose")
	if a.Th.Fclose(fp) < 0 {
		a.C.Cov.Hit("rec.df_fclose")
	}
	pop()
}

// Query answers one DNS query from the loaded zones.
func (a *App) Query(name string) (string, bool) {
	a.C.Cov.Hit("main.query")
	a.queriesServed++
	addr, ok := a.zones[name]
	return addr, ok
}

// Shutdown closes listener descriptors.
func (a *App) Shutdown() {
	t := a.Th
	a.C.Cov.Hit("main.shutdown")
	for _, label := range []string{"sd_close1", "sd_close2", "sd_close3"} {
		fd := t.Open("/etc/named/example.zone", libsim.O_RDONLY)
		if fd < 0 {
			continue
		}
		pop := a.at("shutdown_server", label)
		if t.Close(fd) < 0 {
			a.C.Cov.Hit("rec." + label)
		}
		pop()
	}
}

// ReloadConfig re-reads the four configuration fragments (named.conf
// includes); every open is checked, in various compiled idioms.
func (a *App) ReloadConfig() error {
	t := a.Th
	a.C.Cov.Hit("main.reload")
	for _, label := range []string{"cf_open1", "cf_open2", "cf_open3", "cf_open4"} {
		pop := a.at("reload_config", label)
		fd := t.Open("/etc/named/example.zone", libsim.O_RDONLY)
		pop()
		if fd < 0 {
			a.C.Cov.Hit("rec.cf_open")
			return fmt.Errorf("reload: open (%s): %v", label, t.Errno())
		}
		pop = a.at("reload_config", "cf_close")
		rc := t.Close(fd)
		pop()
		if rc < 0 {
			a.C.Cov.Hit("rec.cf_close")
		}
	}
	return nil
}

// RunSuite is the default test suite.
func (a *App) RunSuite() error {
	if err := a.DstLibInit(); err != nil {
		return err
	}
	if err := a.ReloadConfig(); err != nil {
		return err
	}
	if err := a.LoadZone("/etc/named/example.zone"); err != nil {
		return err
	}
	if err := a.JournalRollforward(); err != nil {
		return err
	}
	if err := a.CacheAlloc(); err != nil {
		return err
	}
	if _, ok := a.Query("www.example.com"); !ok {
		return fmt.Errorf("suite: lookup failed")
	}
	if _, err := a.StatsChannel(); err != nil {
		return err
	}
	if err := a.DumpStats(); err != nil {
		return err
	}
	a.Shutdown()
	return nil
}
