package minivcs

import (
	"fmt"
	"strings"
	"testing"

	"lfi/internal/callsite"
	"lfi/internal/controller"
	"lfi/internal/libsim"
	"lfi/internal/libspec"
	"lfi/internal/profile"
	"lfi/internal/scenario"
)

func TestSuiteCleanWithoutInjection(t *testing.T) {
	out, err := controller.RunOne(Target(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if out.Failed() {
		t.Fatalf("clean run failed: %v", out)
	}
}

// siteScenario builds the analyzer-style scenario for one site label.
func siteScenario(t *testing.T, fn string, retval int64, errnoName, label string) *scenario.Scenario {
	t.Helper()
	_, offsets := Binary()
	doc := fmt.Sprintf(`<scenario name="%s">
	  <trigger id="cs" class="CallStackTrigger">
	    <args><frame><module>%s</module><offset>%x</offset></frame></args>
	  </trigger>
	  <trigger id="once" class="SingletonTrigger" />
	  <function name="%s" return="%d" errno="%s">
	    <reftrigger ref="cs" /><reftrigger ref="once" />
	  </function>
	</scenario>`, label, Module, offsets[label], fn, retval, errnoName)
	s, err := scenario.ParseString(doc)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestUncheckedOpendirBugCrashes(t *testing.T) {
	out, err := controller.RunOne(Target(), siteScenario(t, "opendir", 0, "ENOMEM", "rc_opendir"))
	if err != nil {
		t.Fatal(err)
	}
	if out.Crash == nil || out.Crash.Kind != libsim.Segfault {
		t.Fatalf("expected readdir(NULL) segfault, got %v", out)
	}
	if !strings.Contains(out.Crash.Reason, "readdir(NULL DIR*)") {
		t.Fatalf("crash reason %q", out.Crash.Reason)
	}
}

func TestUncheckedMallocBugsCrash(t *testing.T) {
	for _, label := range []string{"xm_malloc_567", "xm_malloc_571", "xp_malloc_191"} {
		out, err := controller.RunOne(Target(), siteScenario(t, "malloc", 0, "ENOMEM", label))
		if err != nil {
			t.Fatal(err)
		}
		if out.Crash == nil || out.Crash.Kind != libsim.Segfault {
			t.Errorf("%s: expected segfault, got %v", label, out)
		}
	}
}

func TestSetenvBugLosesData(t *testing.T) {
	out, err := controller.RunOne(Target(), siteScenario(t, "setenv", -1, "ENOMEM", "re_setenv_dir"))
	if err != nil {
		t.Fatal(err)
	}
	if out.Crash == nil || out.Crash.Kind != libsim.DataLoss {
		t.Fatalf("expected data loss, got %v", out)
	}
}

func TestCheckedSitesRecoverGracefully(t *testing.T) {
	cases := []struct {
		fn, errno, label string
		retval           int64
	}{
		{"open", "EACCES", "ui_open", -1},
		{"read", "EIO", "ui_read", -1},
		{"close", "EIO", "ui_close", -1},
		{"malloc", "ENOMEM", "xm_malloc_ok", 0},
		{"malloc", "ENOMEM", "xp_malloc_ok", 0},
		{"setenv", "ENOMEM", "re_setenv_work", -1},
		{"open", "EMFILE", "os_open", -1},
		{"write", "ENOSPC", "os_write", -1},
		{"close", "EIO", "os_close1", -1},
		{"opendir", "ENOMEM", "gc_opendir", 0},
		{"unlink", "EACCES", "gc_unlink", -1},
		{"read", "EIO", "or_read", -1},
	}
	for _, c := range cases {
		out, err := controller.RunOne(Target(), siteScenario(t, c.fn, c.retval, c.errno, c.label))
		if err != nil {
			t.Fatal(err)
		}
		if out.Crash != nil {
			t.Errorf("%s: checked site crashed: %v", c.label, out.Crash)
		}
		if out.Injections == 0 {
			t.Errorf("%s: scenario never injected (workload does not reach the site?)", c.label)
		}
	}
}

func TestInjectionAtEOFCode(t *testing.T) {
	// Injecting read()=0 at the fully-checked or_read site exercises
	// the EOF recovery arm.
	out, err := controller.RunOne(Target(), siteScenario(t, "read", 0, "unused", "or_read"))
	if err != nil {
		t.Fatal(err)
	}
	if out.Crash != nil {
		t.Fatalf("EOF injection crashed: %v", out.Crash)
	}
	if out.Injections == 0 {
		t.Fatal("no injection")
	}
}

func TestCoverageImprovesUnderInjection(t *testing.T) {
	// Baseline: no recovery code runs.
	app := New()
	if err := app.RunSuite(); err != nil {
		t.Fatal(err)
	}
	base := Blocks.Recovery(app.C.Cov.Bits())
	if base.BlocksCovered != 0 {
		t.Fatalf("baseline recovery coverage nonzero: %+v", base)
	}
	// One injected fault exercises one recovery block. The workload
	// reports the (gracefully handled) failure — that is expected;
	// what must not happen is a crash.
	tgt := Target()
	tgt.Coverage = true
	out, err := controller.RunOne(tgt, siteScenario(t, "open", -1, "EACCES", "ui_open"))
	if err != nil {
		t.Fatal(err)
	}
	if out.Crash != nil {
		t.Fatalf("crash: %v", out.Crash)
	}
	rec := out.CovU.Recovery(out.Cov)
	if rec.BlocksCovered == 0 {
		t.Fatalf("injection did not improve recovery coverage: %+v", rec)
	}
}

func TestAnalyzerFindsSeededBugs(t *testing.T) {
	bin, sites := Binary()
	p := profile.ProfileBinary(libspec.BuildLibc())
	a := &callsite.Analyzer{}
	rep := a.Analyze(bin, p)
	_, _, not := rep.ByClass()
	unchecked := map[uint64]bool{}
	for _, s := range not {
		unchecked[s.Offset] = true
	}
	for _, label := range []string{"rc_opendir", "xm_malloc_567", "xm_malloc_571", "xp_malloc_191", "re_setenv_dir"} {
		if !unchecked[sites[label]] {
			t.Errorf("analyzer missed seeded bug site %s", label)
		}
	}
	// And the healthy sites must not be flagged unchecked.
	for _, label := range []string{"ui_open", "os_write", "gc_opendir", "xm_malloc_ok"} {
		if unchecked[sites[label]] {
			t.Errorf("analyzer flagged healthy site %s", label)
		}
	}
}

func TestDistinctBugsDeduplicated(t *testing.T) {
	var outs []controller.Outcome
	for i := 0; i < 2; i++ { // same bug twice
		out, err := controller.RunOne(Target(), siteScenario(t, "opendir", 0, "ENOMEM", "rc_opendir"))
		if err != nil {
			t.Fatal(err)
		}
		outs = append(outs, out)
	}
	bugs := controller.DistinctBugs(Module, outs)
	if len(bugs) != 1 || len(bugs[0].Scenarios) != 2 {
		t.Fatalf("bugs %+v", bugs)
	}
}
