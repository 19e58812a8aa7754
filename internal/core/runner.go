package core

import (
	"runtime"
	"sync"
	"time"
)

// The one idle policy: after a step that found no work a participant
// yields idleSpins times in a row, then naps idleNap before each further
// idle step; under load it never naps. While any participant spins, the
// netpoller is not consulted at all (the scheduler looks for socket
// readiness only when nothing is runnable, or on sysmon's ~10 ms tick),
// so the nap is what lets an arrived frame be seen. And a 20 µs nap lasts
// at least 1 ms whenever every goroutine sleeps: the scheduler then parks
// in the netpoller, which waits in whole milliseconds
// (runtime/netpoll_epoll.go sets waitms = 1 for any delay under 1 ms).
// Together these give d1_mixed_small its two latency modes: p50 ≈
// 200–280 µs while something spins, p95 ≈ 1.4 ms when all sleep.
const (
	idleSpins = 128
	idleNap   = 20 * time.Microsecond
)

// Runner runs participants, one goroutine each, under the idle policy,
// until Stop.
type Runner struct {
	quit chan struct{} // closed by Stop
	once sync.Once
	wg   sync.WaitGroup
}

// NewRunner returns a runner with no participants.
func NewRunner() *Runner { return &Runner{quit: make(chan struct{})} }

// Participant is a polling participant.
type Participant struct {
	Step func() bool // one round of work; reports whether it found any
	Stop func() bool // checked before every step; nil: until the runner stops
	Idle func()      // if set, runs before each nap
	Exit func()      // if set, runs after the last step
}

// Poll starts a polling participant. It must not race Stop.
func (r *Runner) Poll(p Participant) {
	if p.Stop == nil {
		p.Stop = func() bool {
			select {
			case <-r.quit:
				return true
			default:
				return false
			}
		}
	}
	r.wg.Add(1)
	go func() {
		defer r.wg.Done()
		if p.Exit != nil {
			defer p.Exit()
		}
		for idle := 0; !p.Stop(); {
			if p.Step() {
				idle = 0
			} else if idle++; idle < idleSpins {
				runtime.Gosched()
			} else {
				if p.Idle != nil {
					p.Idle()
				}
				time.Sleep(idleNap)
			}
		}
	}()
}

// Every starts a periodic participant: fn runs once per period until the
// runner stops. Its step waits for the next tick, so it never naps.
func (r *Runner) Every(period time.Duration, fn func()) {
	t := time.NewTicker(period)
	r.Poll(Participant{Exit: t.Stop, Step: func() bool {
		select {
		case <-r.quit:
		case <-t.C:
			fn()
		}
		return true
	}})
}

// Stop ends the participants that stop with the runner and waits for
// every participant, those with a stop condition of their own included.
func (r *Runner) Stop() {
	r.once.Do(func() { close(r.quit) })
	r.wg.Wait()
}
