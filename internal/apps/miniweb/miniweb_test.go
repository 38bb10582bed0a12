package miniweb

import (
	"testing"

	"lfi/internal/core"
)

func TestStaticRequests(t *testing.T) {
	app := New()
	if err := app.RunAB(50, false); err != nil {
		t.Fatal(err)
	}
	if app.Served() != 50 {
		t.Fatalf("served %d", app.Served())
	}
}

func TestPHPRequests(t *testing.T) {
	app := New()
	if err := app.RunAB(10, true); err != nil {
		t.Fatal(err)
	}
	if app.Served() != 10 {
		t.Fatalf("served %d", app.Served())
	}
}

func TestTable5ScenarioBounds(t *testing.T) {
	if _, err := Table5Scenario(0); err == nil {
		t.Fatal("k=0 accepted")
	}
	if _, err := Table5Scenario(6); err == nil {
		t.Fatal("k=6 accepted")
	}
	for k := 1; k <= 5; k++ {
		s, err := Table5Scenario(k)
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		if len(s.Triggers) != k {
			t.Fatalf("k=%d: %d triggers", k, len(s.Triggers))
		}
		if !s.Functions[0].Observational() {
			t.Fatalf("k=%d: scenario would inject", k)
		}
	}
}

func TestTriggersEvaluateWithoutPerturbing(t *testing.T) {
	for k := 1; k <= 5; k++ {
		app := New()
		s, err := Table5Scenario(k)
		if err != nil {
			t.Fatal(err)
		}
		rt, err := core.New(app.C, s)
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		rt.Install()
		if err := app.RunAB(20, false); err != nil {
			t.Fatalf("k=%d: workload: %v", k, err)
		}
		rt.Uninstall()
		if rt.Injections() != 0 {
			t.Fatalf("k=%d: observational scenario injected", k)
		}
		if rt.Evals() == 0 {
			t.Fatalf("k=%d: triggers never evaluated", k)
		}
		if app.Served() != 20 {
			t.Fatalf("k=%d: served %d", k, app.Served())
		}
	}
}

func TestTriggerStackShortCircuits(t *testing.T) {
	// The first trigger (FDIsSocket) is false for file reads, so a
	// 5-trigger stack must evaluate only ~1 trigger per interception.
	app := New()
	s, err := Table5Scenario(5)
	if err != nil {
		t.Fatal(err)
	}
	rt, err := core.New(app.C, s)
	if err != nil {
		t.Fatal(err)
	}
	rt.Install()
	if err := app.RunAB(10, false); err != nil {
		t.Fatal(err)
	}
	rt.Uninstall()
	reads := app.C.Disp.CallCount("apr_file_read")
	if rt.Evals() != reads {
		t.Fatalf("evals %d != apr_file_read count %d (short-circuit broken)", rt.Evals(), reads)
	}
}

func TestMethodNumberVar(t *testing.T) {
	app := New()
	if err := app.ServeStatic("/www/index.html", MethodPOST); err != nil {
		t.Fatal(err)
	}
	if v, ok := app.C.ReadVar("method_number"); !ok || v != MethodPOST {
		t.Fatalf("method_number = %d %v", v, ok)
	}
}

func TestMissingFileRecovered(t *testing.T) {
	app := New()
	if err := app.ServeStatic("/www/nope.html", MethodGET); err == nil {
		t.Fatal("missing file served")
	}
	if Blocks.Recovery(app.C.Cov.Bits()).BlocksCovered == 0 {
		t.Fatal("open recovery not exercised")
	}
}
