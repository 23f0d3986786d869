package fault

import (
	"fmt"
	"reflect"
	"testing"

	"blemesh/internal/sim"
)

// fakeTarget records calls with their simulation timestamps.
type fakeTarget struct {
	s     *sim.Sim
	calls []string
}

func (f *fakeTarget) note(format string, args ...any) {
	f.calls = append(f.calls, fmt.Sprintf("t=%v ", f.s.Now())+fmt.Sprintf(format, args...))
}

func (f *fakeTarget) CrashNode(id int)   { f.note("crash %d", id) }
func (f *fakeTarget) RestartNode(id int) { f.note("restart %d", id) }

func TestPlanExecutesInOrder(t *testing.T) {
	s := sim.New(1)
	ft := &fakeTarget{s: s}
	plan := &Plan{Events: []Event{
		{At: 1 * sim.Second, Kind: Reboot, Node: 3, Dwell: 2 * sim.Second},
		{At: 7 * sim.Second, Kind: Crash, Node: 4},
		{At: 8 * sim.Second, Kind: Restart, Node: 4},
	}}
	inj, err := Attach(s, ft, plan)
	if err != nil {
		t.Fatal(err)
	}
	s.Run(10 * sim.Second)

	want := []string{
		"t=1.000000s crash 3",
		"t=3.000000s restart 3",
		"t=7.000000s crash 4",
		"t=8.000000s restart 4",
	}
	if !reflect.DeepEqual(ft.calls, want) {
		t.Fatalf("calls:\n%v\nwant:\n%v", ft.calls, want)
	}
	if got := len(inj.Log()); got != len(want) {
		t.Fatalf("log has %d records, want %d", got, len(want))
	}
}

func TestRebootDefaultDwell(t *testing.T) {
	s := sim.New(1)
	ft := &fakeTarget{s: s}
	_, err := Attach(s, ft, &Plan{Events: []Event{{At: sim.Second, Kind: Reboot, Node: 1}}})
	if err != nil {
		t.Fatal(err)
	}
	s.Run(20 * sim.Second)
	want := []string{"t=1.000000s crash 1", fmt.Sprintf("t=%v restart 1", sim.Second+DefaultDwell)}
	if !reflect.DeepEqual(ft.calls, want) {
		t.Fatalf("calls = %v, want %v", ft.calls, want)
	}
}

func TestValidateRejectsBadPlans(t *testing.T) {
	bad := []Plan{
		{Events: []Event{{At: -sim.Second, Kind: Crash}}},
		{Events: []Event{{At: 0, Kind: Reboot, Dwell: -sim.Second}}},
		{Events: []Event{{At: 0, Kind: Kind(99)}}},
	}
	for i := range bad {
		if err := bad[i].Validate(); err == nil {
			t.Errorf("plan %d: Validate accepted a bad plan", i)
		}
	}
}
