// Package energy implements the charge-accounting model behind the paper's
// §5.4 evaluation, calibrated to the authors' Power Profiler Kit
// measurements on nrf52dk boards: per-connection-event charges for each
// role, per-advertising-event charge, per-byte radio activity, and the
// board's idle floor. From simulated event counts it derives average
// current and battery lifetimes.
package energy

import (
	"fmt"

	"blemesh/internal/ble"
	"blemesh/internal/phy"
	"blemesh/internal/sim"
)

// Params are the calibration constants. Defaults reproduce the paper's
// measurements.
type Params struct {
	// ChargeConnEventCoord is the charge of one serviced connection event
	// in the coordinator role (paper: 2.3µC).
	ChargeConnEventCoord float64 // µC
	// ChargeConnEventSub is the subordinate-role equivalent (2.6µC — the
	// subordinate pays for window-widened listening).
	ChargeConnEventSub float64 // µC
	// ChargeAdvEvent is one 3-channel advertising event. The paper's
	// beacon measurement (31-byte payload at 1s interval costing 12µA
	// over idle) pins this at 12µC.
	ChargeAdvEvent float64 // µC
	// RadioCurrent approximates the nRF52 radio's active draw for data
	// transfer beyond the per-event floor, charged per airtime second
	// (TX at 0dBm and RX draw are both ≈5.4mA on nRF52832).
	RadioCurrent float64 // µA while active
	// IdleCurrent is the board's baseline (paper: 15µA).
	IdleCurrent float64 // µA
}

// DefaultParams returns the paper-calibrated constants.
func DefaultParams() Params {
	return Params{
		ChargeConnEventCoord: 2.3,
		ChargeConnEventSub:   2.6,
		ChargeAdvEvent:       12.0,
		RadioCurrent:         5400,
		IdleCurrent:          15,
	}
}

// Snapshot captures the counters that feed the model at one instant.
type Snapshot struct {
	At            sim.Time
	ConnEvents    uint64 // coordinator-role events serviced
	ConnEventsSub uint64 // subordinate-role events serviced
	AdvEvents     uint64
	TXTime        sim.Duration
	RXTime        sim.Duration
}

// Meter accumulates a node's radio activity for energy reporting.
type Meter struct {
	p     Params
	ctrl  *ble.Controller
	radio *phy.Radio
	start Snapshot
}

// NewMeter attaches a meter to a BLE controller/radio pair using the given
// calibration.
func NewMeter(p Params, ctrl *ble.Controller, radio *phy.Radio) *Meter {
	m := &Meter{p: p, ctrl: ctrl, radio: radio}
	m.start = m.snapshot(0)
	return m
}

func (m *Meter) snapshot(at sim.Time) Snapshot {
	ev := m.ctrl.Events()
	return Snapshot{
		At:            at,
		ConnEvents:    ev.ConnEvents,
		ConnEventsSub: ev.ConnEventsSub,
		AdvEvents:     ev.AdvEvents,
		TXTime:        m.radio.TXTime,
		RXTime:        m.radio.RXTime,
	}
}

// Reset restarts the measurement window at the given simulation time.
func (m *Meter) Reset(at sim.Time) { m.start = m.snapshot(at) }

// Report computes the average current over [start, now].
func (m *Meter) Report(now sim.Time) Report {
	cur := m.snapshot(now)
	dur := (cur.At - m.start.At).Seconds()
	if dur <= 0 {
		return Report{}
	}
	d := Snapshot{
		ConnEvents:    cur.ConnEvents - m.start.ConnEvents,
		ConnEventsSub: cur.ConnEventsSub - m.start.ConnEventsSub,
		AdvEvents:     cur.AdvEvents - m.start.AdvEvents,
		TXTime:        cur.TXTime - m.start.TXTime,
		RXTime:        cur.RXTime - m.start.RXTime,
	}
	return m.p.Derive(d, dur)
}

// Report is the energy outcome over a window.
type Report struct {
	Duration float64 // seconds
	// AvgCurrent is the total average draw including the idle floor, µA.
	AvgCurrent float64
	// RadioCurrent is the BLE-attributable share (AvgCurrent − idle), µA.
	RadioCurrent float64
	Breakdown    Breakdown
}

// Breakdown itemises the charge sources in µC.
type Breakdown struct {
	ConnEventsCoord float64
	ConnEventsSub   float64
	AdvEvents       float64
	DataActivity    float64
}

// Derive computes a report from a delta snapshot over dur seconds.
func (p Params) Derive(d Snapshot, dur float64) Report {
	// The per-event charges cover the minimal (empty) exchange; airtime
	// beyond two empty PDUs per serviced event is charged at the radio's
	// active current.
	baseAir := float64(float64(d.ConnEvents+d.ConnEventsSub) * 2 * (160e-6)) // two empty PDUs ≈ 160µs airtime each way
	extraAir := (d.TXTime + d.RXTime).Seconds() - baseAir
	if extraAir < 0 {
		extraAir = 0
	}
	b := Breakdown{
		ConnEventsCoord: float64(float64(d.ConnEvents) * p.ChargeConnEventCoord),
		ConnEventsSub:   float64(float64(d.ConnEventsSub) * p.ChargeConnEventSub),
		AdvEvents:       float64(float64(d.AdvEvents) * p.ChargeAdvEvent),
		DataActivity:    float64(extraAir * p.RadioCurrent), // µA·s = µC
	}
	radioCharge := b.ConnEventsCoord + b.ConnEventsSub + b.AdvEvents + b.DataActivity
	radioAvg := radioCharge / dur
	return Report{
		Duration:     dur,
		AvgCurrent:   radioAvg + p.IdleCurrent,
		RadioCurrent: radioAvg,
		Breakdown:    b,
	}
}

// IdleConnCurrent returns the analytic added current of a single idle
// connection at the given interval for a role — §5.4's first numbers
// (75ms ⇒ 30.7µA coordinator, 34.7µA subordinate).
func (p Params) IdleConnCurrent(interval sim.Duration, sub bool) float64 {
	perSec := 1 / interval.Seconds()
	if sub {
		return perSec * p.ChargeConnEventSub
	}
	return perSec * p.ChargeConnEventCoord
}

// BeaconCurrent returns the added current of a pure advertiser at the given
// advertising interval (§5.4's beacon: 1s ⇒ 12µA).
func (p Params) BeaconCurrent(advInterval sim.Duration) float64 {
	return p.ChargeAdvEvent / advInterval.Seconds()
}

// Battery capacities used in the paper's lifetime examples.
const (
	CoinCellMAh = 230.0  // CR2032
	Cell18650   = 2500.0 // 18650 Li-Ion
)

// LifetimeHours converts an average draw into battery life.
func LifetimeHours(batteryMAh, avgCurrentUA float64) float64 {
	if avgCurrentUA <= 0 {
		return 0
	}
	return batteryMAh * 1000 / avgCurrentUA
}

// LifetimeDays is LifetimeHours in days.
func LifetimeDays(batteryMAh, avgCurrentUA float64) float64 {
	return LifetimeHours(batteryMAh, avgCurrentUA) / 24
}

func (r Report) String() string {
	return fmt.Sprintf("avg %.1fµA (radio %.1fµA) over %.0fs [coord %.0fµC, sub %.0fµC, adv %.0fµC, data %.0fµC]",
		r.AvgCurrent, r.RadioCurrent, r.Duration,
		r.Breakdown.ConnEventsCoord, r.Breakdown.ConnEventsSub,
		r.Breakdown.AdvEvents, r.Breakdown.DataActivity)
}
