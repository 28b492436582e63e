package power

import (
	"math"
	"testing"
	"testing/quick"
)

func TestServerIdleIsHalfPeak(t *testing.T) {
	s := R720()
	ratio := float64(s.IdleW) / float64(s.PeakW)
	if math.Abs(ratio-0.5) > 0.05 {
		t.Errorf("idle/peak ratio %v, literature says ~0.5", ratio)
	}
}

func TestServerDraw(t *testing.T) {
	s := R720()
	if s.Draw(0) != s.IdleW {
		t.Error("draw at 0 util should be idle")
	}
	if s.Draw(1) != s.PeakW {
		t.Error("draw at 1 util should be peak")
	}
	mid := s.Draw(0.5)
	if mid != (s.IdleW+s.PeakW)/2 {
		t.Errorf("draw at 0.5 = %v", mid)
	}
	// Clamping.
	if s.Draw(-1) != s.IdleW || s.Draw(2) != s.PeakW {
		t.Error("utilization should clamp to [0,1]")
	}
}

func TestServerDrawMonotone(t *testing.T) {
	s := R720()
	f := func(a, b float64) bool {
		ua, ub := math.Abs(a), math.Abs(b)
		ua, ub = ua-math.Floor(ua), ub-math.Floor(ub)
		if ua > ub {
			ua, ub = ub, ua
		}
		return s.Draw(ua) <= s.Draw(ub)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestServerValidate(t *testing.T) {
	if err := R720().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := R720()
	bad.PeakW = bad.IdleW - 1
	if bad.Validate() == nil {
		t.Error("peak < idle should be invalid")
	}
	bad = R720()
	bad.BootEnergyWh = -1
	if bad.Validate() == nil {
		t.Error("negative boot energy should be invalid")
	}
}

func TestDiskStateString(t *testing.T) {
	cases := map[DiskState]string{
		DiskActive:       "active",
		DiskIdle:         "idle",
		DiskStandby:      "standby",
		DiskSpinningUp:   "spinning-up",
		DiskSpinningDown: "spinning-down",
	}
	for s, want := range cases {
		if s.String() != want {
			t.Errorf("%d.String() = %q, want %q", int(s), s.String(), want)
		}
	}
	if DiskState(99).String() == "" {
		t.Error("unknown state should still stringify")
	}
}

func TestDiskDrawOrdering(t *testing.T) {
	for _, d := range []DiskProfile{EnterpriseHDD(), ArchiveHDD()} {
		if err := d.Validate(); err != nil {
			t.Fatalf("%s invalid: %v", d.Name, err)
		}
		if !(d.Draw(DiskActive) >= d.Draw(DiskIdle) && d.Draw(DiskIdle) > d.Draw(DiskStandby)) {
			t.Errorf("%s power ordering violated", d.Name)
		}
		if d.Draw(DiskSpinningUp) <= d.Draw(DiskIdle) {
			t.Errorf("%s spin-up transient should exceed idle", d.Name)
		}
	}
}

func TestDiskDrawPanicsOnUnknownState(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("unknown state should panic")
		}
	}()
	EnterpriseHDD().Draw(DiskState(42))
}

func TestDiskValidate(t *testing.T) {
	bad := EnterpriseHDD()
	bad.StandbyW = bad.IdleW + 1
	if bad.Validate() == nil {
		t.Error("standby above idle should be invalid")
	}
	bad = EnterpriseHDD()
	bad.SpinUpSeconds = -1
	if bad.Validate() == nil {
		t.Error("negative spin-up time should be invalid")
	}
}

func TestSpinEnergies(t *testing.T) {
	d := EnterpriseHDD()
	// 24 W for 10 s = 240 J = 0.0667 Wh.
	want := 24.0 * 10 / 3600
	if math.Abs(float64(d.SpinUpEnergy())-want) > 1e-9 {
		t.Errorf("spin-up energy %v, want %v", d.SpinUpEnergy(), want)
	}
}

func TestNodeProfile(t *testing.T) {
	n := DefaultNode()
	if err := n.Validate(); err != nil {
		t.Fatal(err)
	}
	// Idle server + 12 standby disks: 110 + 12 = 122 W.
	if n.MinOnNodePower() != 122 {
		t.Errorf("min on-node power %v, want 122 W", n.MinOnNodePower())
	}
	bad := n
	bad.DisksPerNode = 0
	if bad.Validate() == nil {
		t.Error("zero disks should be invalid")
	}
}

func TestDVFSDraw(t *testing.T) {
	linear := R720()
	dvfs := R720().WithDVFS(1.7)
	// Endpoints identical.
	if dvfs.Draw(0) != linear.Draw(0) || dvfs.Draw(1) != linear.Draw(1) {
		t.Fatal("DVFS curve must agree at idle and peak")
	}
	// Superlinear dynamic term: cheaper at partial load.
	for _, u := range []float64{0.2, 0.5, 0.8} {
		if dvfs.Draw(u) >= linear.Draw(u) {
			t.Fatalf("alpha=1.7 at u=%v draws %v, not below linear %v", u, dvfs.Draw(u), linear.Draw(u))
		}
	}
	// Zero alpha falls back to linear.
	zero := R720().WithDVFS(0)
	if zero.Draw(0.5) != linear.Draw(0.5) {
		t.Fatal("alpha=0 should behave as linear")
	}
}

func TestDVFSMonotone(t *testing.T) {
	d := R720().WithDVFS(1.7)
	prev := d.Draw(0)
	for u := 0.05; u <= 1.0001; u += 0.05 {
		cur := d.Draw(u)
		if cur < prev {
			t.Fatalf("draw not monotone at u=%v", u)
		}
		prev = cur
	}
}
