// Package obsguard is the fixture for the obsguard analyzer.
package obsguard

import (
	"wile/internal/obs"
	"wile/internal/sim"
)

// device models the hot-path shape: observability hooks stored in nilable
// fields, consulted on every simulated event.
type device struct {
	rec     *obs.Recorder
	track   obs.TrackID
	metrics *instruments
}

type instruments struct {
	frames *obs.Counter
	drops  *obs.Counter
}

func (d *device) goodGuarded(at int64) {
	if d.rec != nil {
		d.rec.Instant(d.track, 0, "tick")
	}
	if d.metrics != nil {
		d.metrics.frames.Inc()
		d.metrics.drops.Add(1)
	}
	if d.rec != nil && at > 0 {
		d.rec.Instant(d.track, 0, "late")
	}
}

func (d *device) badUnguarded() {
	d.rec.Instant(d.track, 0, "tick") // want `obs call d.rec.Instant is not behind a nil guard`
	d.metrics.frames.Inc()            // want `obs call d.metrics.frames.Inc is not behind a nil guard`
}

func (d *device) goodEarlyReturn() {
	if d.rec == nil {
		return
	}
	d.rec.Instant(d.track, 0, "tick")
}

func (d *device) badElseBranch() {
	if d.rec != nil {
		d.rec.Instant(d.track, 0, "then")
	} else {
		d.rec.Instant(d.track, 0, "else") // want `obs call d.rec.Instant is not behind a nil guard`
	}
}

func (d *device) badDisjunction(on bool) {
	if d.rec != nil || on {
		d.rec.Instant(d.track, 0, "maybe") // want `obs call d.rec.Instant is not behind a nil guard`
	}
}

// badClosure shows why the guard must live inside the deferred function:
// by the time the closure runs, the schedule-time check proves nothing.
func (d *device) badClosure(after func(func())) {
	if d.rec != nil {
		after(func() {
			d.rec.Instant(d.track, 0, "deferred") // want `obs call d.rec.Instant is not behind a nil guard`
		})
	}
	after(func() {
		if d.rec != nil {
			d.rec.Instant(d.track, 0, "deferred") // guard inside the closure: ok
		}
	})
}

// TraceTo is wiring, not hot path: the receiver chain roots at a function
// parameter, so the caller owns the nil decision.
func (d *device) TraceTo(r *obs.Recorder) {
	d.rec = r
	d.track = r.Track("device")
}

// Observe likewise builds instruments from a caller-owned registry.
func (d *device) Observe(reg *obs.Registry) {
	d.metrics = &instruments{
		frames: reg.Counter("device.frames"),
		drops:  reg.Counter("device.drops"),
	}
}

func (d *device) allowed() {
	d.rec.Instant(d.track, 0, "tick") //wile:allow obsguard -- fixture: directive suppression
}

func localGuarded(mk func() *obs.Registry) {
	if reg := mk(); reg != nil {
		reg.Counter("local").Inc()
	}
}

// provDevice models the frame-provenance hook shape: a nilable ledger
// consulted at every terminal frame outcome on the receive path.
type provDevice struct {
	prov *obs.Provenance
	id   obs.ActorID
}

func (d *provDevice) hooks() (*obs.Provenance, obs.ActorID) {
	return d.prov, d.id
}

// goodResolveInit is the canonical hook idiom: read the field into a local
// in the if-init statement and prove it non-nil before resolving.
func (d *provDevice) goodResolveInit(frame obs.FrameID, at sim.Time) {
	if pr := d.prov; pr != nil {
		pr.Resolve(frame, d.id, at, obs.Delivered)
	}
}

// goodResolveAccessor mirrors a delegated resolver: both hooks come back
// from an accessor and the ledger half is guarded.
func (d *provDevice) goodResolveAccessor(frame obs.FrameID, at sim.Time) {
	if pr, id := d.hooks(); pr != nil {
		pr.Resolve(frame, id, at, obs.DropDecodeError)
	}
}

func (d *provDevice) badResolve(frame obs.FrameID, at sim.Time) {
	d.prov.Resolve(frame, d.id, at, obs.DropCollided) // want `obs call d.prov.Resolve is not behind a nil guard`
	d.prov.QueueDrop(d.id, at)                        // want `obs call d.prov.QueueDrop is not behind a nil guard`
}
