// Package power provides the electrical power models for the devices in a
// GreenMatch storage data center: servers (idle + CPU-proportional dynamic
// power) and disks (a five-state machine with spin-up/down transition
// energies).
//
// The server preset reproduces the property measured on Grid'5000 Dell
// PowerEdge R720 nodes that the literature leans on: an idle server draws
// roughly half of its peak power, which is what makes consolidation and
// switch-off worthwhile.
package power

import (
	"fmt"
	"math"

	"repro/internal/units"
)

// ServerProfile models a server's power as
//
//	P(u) = idle + (peak - idle) * u^DVFSAlpha
//
// with utilization u in [0,1]. DVFSAlpha = 1 is the classic linear model;
// governors that scale frequency (and with it voltage) with load make the
// dynamic term superlinear — measurements on DVFS-enabled Xeons fit
// exponents around 1.5-1.8, which rewards consolidation less and partial
// load more.
type ServerProfile struct {
	// Name identifies the profile in reports.
	Name string
	// IdleW is the draw of a powered-on but idle server.
	IdleW units.Power
	// PeakW is the draw at 100% CPU utilization.
	PeakW units.Power
	// DVFSAlpha is the exponent of the dynamic term (0 means 1: linear).
	DVFSAlpha float64
	// BootEnergyWh is the energy spent powering the server on (boot).
	BootEnergyWh units.Energy
	// ShutdownEnergyWh is the energy spent powering it off.
	ShutdownEnergyWh units.Energy
}

// R720 returns the Dell PowerEdge R720-class profile: 2x6-core Xeon E5-2630,
// idle ~110 W, peak ~220 W (idle = half of peak), with modest boot/shutdown
// transition energies.
func R720() ServerProfile {
	return ServerProfile{
		Name:             "dell-r720",
		IdleW:            110,
		PeakW:            220,
		BootEnergyWh:     8, // ~160 W for 3 minutes
		ShutdownEnergyWh: 2,
	}
}

// Validate reports a descriptive error for inconsistent parameters.
func (s ServerProfile) Validate() error {
	if s.IdleW < 0 || s.PeakW < s.IdleW {
		return fmt.Errorf("power: server profile %q needs 0 <= idle(%v) <= peak(%v)", s.Name, s.IdleW, s.PeakW)
	}
	if s.BootEnergyWh < 0 || s.ShutdownEnergyWh < 0 {
		return fmt.Errorf("power: server profile %q has negative transition energy", s.Name)
	}
	return nil
}

// Draw returns the power at the given CPU utilization, clamped to [0,1].
func (s ServerProfile) Draw(cpuUtil float64) units.Power {
	if cpuUtil < 0 {
		cpuUtil = 0
	}
	if cpuUtil > 1 {
		cpuUtil = 1
	}
	alpha := s.DVFSAlpha
	if alpha <= 0 {
		alpha = 1
	}
	return s.IdleW + (s.PeakW - s.IdleW).Scale(math.Pow(cpuUtil, alpha))
}

// WithDVFS returns a copy of the profile with the given dynamic exponent.
func (s ServerProfile) WithDVFS(alpha float64) ServerProfile {
	s.DVFSAlpha = alpha
	return s
}

// DiskState enumerates the disk power-state machine.
type DiskState int

// Disk states. SpinningUp and SpinningDown are transient states that the
// storage layer holds a disk in for the profile's transition duration.
const (
	DiskActive DiskState = iota
	DiskIdle
	DiskStandby
	DiskSpinningUp
	DiskSpinningDown
)

// String returns the lowercase state name.
func (s DiskState) String() string {
	switch s {
	case DiskActive:
		return "active"
	case DiskIdle:
		return "idle"
	case DiskStandby:
		return "standby"
	case DiskSpinningUp:
		return "spinning-up"
	case DiskSpinningDown:
		return "spinning-down"
	default:
		return fmt.Sprintf("DiskState(%d)", int(s))
	}
}

// DiskProfile models a hard disk's per-state power and transition costs.
type DiskProfile struct {
	// Name identifies the profile in reports.
	Name string
	// ActiveW is the draw while servicing I/O.
	ActiveW units.Power
	// IdleW is the draw while spinning but not servicing I/O.
	IdleW units.Power
	// StandbyW is the draw while spun down.
	StandbyW units.Power
	// SpinUpW and SpinUpSeconds describe the spin-up transient; the energy
	// cost of one spin-up is SpinUpW * SpinUpSeconds.
	SpinUpW       units.Power
	SpinUpSeconds float64
	// SpinDownW and SpinDownSeconds describe the (much cheaper) spin-down.
	SpinDownW       units.Power
	SpinDownSeconds float64
}

// EnterpriseHDD returns a 7200 rpm enterprise 3.5" HDD class profile,
// consistent with public datasheet ranges (WD/Seagate enterprise lines):
// ~11 W active, ~8 W idle, ~1 W standby, 24 W for a 10 s spin-up.
func EnterpriseHDD() DiskProfile {
	return DiskProfile{
		Name:            "enterprise-7200",
		ActiveW:         11,
		IdleW:           8,
		StandbyW:        1,
		SpinUpW:         24,
		SpinUpSeconds:   10,
		SpinDownW:       6,
		SpinDownSeconds: 3,
	}
}

// ArchiveHDD returns an SMR/archive-class profile: lower spin speeds, lower
// active power, slower spin-up — the disk type a massive cold-storage tier
// uses.
func ArchiveHDD() DiskProfile {
	return DiskProfile{
		Name:            "archive-5900",
		ActiveW:         7.5,
		IdleW:           5,
		StandbyW:        0.8,
		SpinUpW:         20,
		SpinUpSeconds:   15,
		SpinDownW:       4,
		SpinDownSeconds: 4,
	}
}

// Validate reports a descriptive error for inconsistent parameters.
func (d DiskProfile) Validate() error {
	if !(d.ActiveW >= d.IdleW && d.IdleW >= d.StandbyW && d.StandbyW >= 0) {
		return fmt.Errorf("power: disk profile %q needs active(%v) >= idle(%v) >= standby(%v) >= 0",
			d.Name, d.ActiveW, d.IdleW, d.StandbyW)
	}
	if d.SpinUpW < 0 || d.SpinUpSeconds < 0 || d.SpinDownW < 0 || d.SpinDownSeconds < 0 {
		return fmt.Errorf("power: disk profile %q has negative transition parameters", d.Name)
	}
	return nil
}

// Draw returns the steady-state power in the given state. Transient states
// report their transient draw.
func (d DiskProfile) Draw(s DiskState) units.Power {
	switch s {
	case DiskActive:
		return d.ActiveW
	case DiskIdle:
		return d.IdleW
	case DiskStandby:
		return d.StandbyW
	case DiskSpinningUp:
		return d.SpinUpW
	case DiskSpinningDown:
		return d.SpinDownW
	default:
		panic(fmt.Sprintf("power: unknown disk state %d", int(s)))
	}
}

// SpinUpEnergy returns the energy of one complete spin-up transient.
func (d DiskProfile) SpinUpEnergy() units.Energy {
	return d.SpinUpW.Over(d.SpinUpSeconds / 3600)
}

// SpinDownEnergy returns the energy of one complete spin-down transient.
func (d DiskProfile) SpinDownEnergy() units.Energy {
	return d.SpinDownW.Over(d.SpinDownSeconds / 3600)
}

// NodeProfile bundles a server profile with the disk population of a
// storage node.
type NodeProfile struct {
	Server       ServerProfile
	Disk         DiskProfile
	DisksPerNode int
}

// DefaultNode returns the reference storage node: an R720-class server with
// 12 enterprise HDDs (a typical 2U storage server).
func DefaultNode() NodeProfile {
	return NodeProfile{Server: R720(), Disk: EnterpriseHDD(), DisksPerNode: 12}
}

// Validate reports a descriptive error for inconsistent parameters.
func (n NodeProfile) Validate() error {
	if err := n.Server.Validate(); err != nil {
		return err
	}
	if err := n.Disk.Validate(); err != nil {
		return err
	}
	if n.DisksPerNode <= 0 {
		return fmt.Errorf("power: node needs at least one disk, got %d", n.DisksPerNode)
	}
	return nil
}

// MinOnNodePower returns the draw of a powered-on node at idle with all
// disks in standby — the floor cost of keeping a node available.
func (n NodeProfile) MinOnNodePower() units.Power {
	return n.Server.IdleW + n.Disk.StandbyW.Scale(float64(n.DisksPerNode))
}
