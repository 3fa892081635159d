//go:build go1.23

package sim

import "iter"

// newActor makes an actor: a coroutine, started at its first resume, that
// runs e.loop. Coroutines (iter.Pull) came with Go 1.23; this file's build
// line lifts its language version to that, while the module stays at go
// 1.22 for the modules that require it.
func (e *Engine) newActor() *actor {
	if len(e.spare) == 0 {
		e.spare = make([]actor, actorBlock)
	}
	a := &e.spare[0]
	e.spare = e.spare[1:]
	a.tok.a = a
	a.resume, _ = iter.Pull(e.loop)
	return a
}
