package simclock

import "testing"

func TestCostModels(t *testing.T) {
	perq := PerqT2()
	ach := Achievable()
	// Table 5-1 spot checks.
	if perq.Millis(DataServerCall) != 26.1 {
		t.Errorf("Perq data server call %v", perq.Millis(DataServerCall))
	}
	if perq.Millis(StableWrite) != 79 {
		t.Errorf("Perq stable write %v", perq.Millis(StableWrite))
	}
	// Table 5-5 spot checks.
	if ach.Millis(DataServerCall) != 2.5 {
		t.Errorf("achievable data server call %v", ach.Millis(DataServerCall))
	}
	// Every primitive must be priced in both models; the achievable model
	// never exceeds the Perq model.
	for p := Primitive(0); int(p) < NumPrimitives; p++ {
		if perq.Millis(p) <= 0 || ach.Millis(p) <= 0 {
			t.Errorf("%v unpriced", p)
		}
		if ach.Millis(p) > perq.Millis(p) {
			t.Errorf("%v: achievable %v exceeds Perq %v", p, ach.Millis(p), perq.Millis(p))
		}
	}
}

func TestPrimitiveNames(t *testing.T) {
	if DataServerCall.String() != "Data Server Call" {
		t.Errorf("name %q", DataServerCall.String())
	}
	if Primitive(99).String() == "" {
		t.Error("out-of-range primitive has empty name")
	}
}
