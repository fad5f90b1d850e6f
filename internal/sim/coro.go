//go:build go1.23

package sim

import "iter"

// This is the only file that needs Go 1.23 (iter.Pull). The build
// constraint raises this file's language version without raising the
// module's go line, so building the package requires a Go 1.23 or later
// toolchain.

// spawn creates p's coroutine for the current Run. It does not start the
// body: the first resume does, and an abandoned run finishes a coroutine
// that never started without running the body at all.
func (p *Proc) spawn(body func(*Proc)) {
	p.coNext, p.coStop = iter.Pull(func(yield func(struct{}) bool) {
		p.coYield = yield
		p.e.runProc(p, body)
	})
}
