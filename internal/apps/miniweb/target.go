package miniweb

import (
	"sync"

	"lfi/internal/controller"
	"lfi/internal/libsim"
)

// pool recycles App instances across runs: Start draws a reset app,
// Recycle rewinds it after the controller has captured the outcome.
// Concurrent campaign workers each hold distinct apps, so the target
// stays safe for parallel campaigns while steady-state runs skip the
// full fixture staging of New.
var pool = sync.Pool{New: func() any { return New() }}

func acquire() *App { return pool.Get().(*App) }

func recycle(c *libsim.C) {
	if app, ok := c.Owner.(*App); ok {
		app.Reset()
		pool.Put(app)
	}
}

// Target adapts miniweb to the LFI controller (default suite workload).
func Target() controller.Target {
	return controller.Target{
		Name: Module,
		Start: func() (*libsim.C, func() error) {
			app := acquire()
			return app.C, app.suite
		},
		Recycle: recycle,
	}
}
