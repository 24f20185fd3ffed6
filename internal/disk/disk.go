// Package disk simulates the non-volatile storage of a TABS node.
//
// The paper's Perq workstations had a single disk holding both the log and
// all recoverable segments (§3.2.2, §5.1). The single arm matters to the
// evaluation: log forces interleaved with page writes destroy sequential
// locality, which is why the paper reports no sequential-write primitive and
// why its Stable Storage Write costs 79 ms. This package models a sector
// array with per-sector header words (the Perq disk's header space, which
// TABS uses to store the 39-bit page sequence numbers that operation
// logging requires, §3.2.1) and a simple arm-position latency model.
//
// Contents survive Node.Crash (volatile state loss) but the package can
// also inject write failures to exercise recovery edge cases.
package disk

import (
	"errors"
	"fmt"
	"sync"
)

// SectorSize is the number of data bytes in one sector. TABS used 512-byte
// pages, one page per sector (§5.1).
const SectorSize = 512

// Errors returned by disk operations.
var (
	ErrOutOfRange  = errors.New("disk: sector address out of range")
	ErrWriteFailed = errors.New("disk: injected write failure")
	ErrReadFailed  = errors.New("disk: injected read failure")
	ErrBadSize     = errors.New("disk: buffer must be exactly one sector")
)

// FaultAction is a fault hook's verdict on one disk access.
type FaultAction uint8

// Fault hook verdicts.
const (
	// FaultNone lets the access proceed normally.
	FaultNone FaultAction = iota
	// FaultError fails the access without touching the media
	// (ErrWriteFailed / ErrReadFailed).
	FaultError
	// FaultTorn applies to writes only: the first half of the sector's
	// data is written, the rest — and the header word — keep their old
	// contents, and the write reports ErrWriteFailed. This models a
	// sector write interrupted by a power failure; the header's atomic
	// write guarantee (§3.2.1) does not hold for the data it describes,
	// which is exactly the case log-frame checksums and the dirty-page
	// table must cover. On reads FaultTorn behaves like FaultError.
	FaultTorn
)

// TornBytes is how much of the sector a FaultTorn write transfers before
// the simulated interruption.
const TornBytes = SectorSize / 2

// FaultHook decides the fate of one disk access (write reports direction).
// It is called with the disk mutex held and must not call back into the
// disk. The fault-injection layer (internal/fault) supplies deterministic
// seeded hooks; a nil hook (the default) injects nothing.
type FaultHook func(write bool, addr Addr) FaultAction

// Addr is a sector address on a disk.
type Addr int64

// Sector is one disk sector: a page of data plus the header word available
// in the Perq sector header, which TABS uses for the page sequence number
// written atomically with the data (§3.2.1).
type Sector struct {
	Data   [SectorSize]byte
	Header uint64 // 39 significant bits in the original hardware
}

// Geometry describes the latency model of a simulated disk, in virtual
// milliseconds. The defaults approximate the Perq figures behind Table 5-1.
type Geometry struct {
	// Sectors is the capacity of the disk.
	Sectors int64
	// SeekMillis is charged when an access is not sequential with the
	// previous one (arm movement + rotational delay).
	SeekMillis float64
	// TransferMillis is charged for every sector transferred.
	TransferMillis float64
	// SectorsPerTrack controls when sequential access crosses a track
	// boundary and pays a (small) head-switch cost.
	SectorsPerTrack int64
	// HeadSwitchMillis is charged at track boundaries during sequential
	// access.
	HeadSwitchMillis float64
}

// DefaultGeometry returns a latency model tuned so that random paged I/O
// costs ≈32 ms and sequential reads ≈16 ms, matching Table 5-1.
func DefaultGeometry(sectors int64) Geometry {
	return Geometry{
		Sectors:          sectors,
		SeekMillis:       16.5,
		TransferMillis:   15.5,
		SectorsPerTrack:  30,
		HeadSwitchMillis: 2,
	}
}

// Disk is a simulated disk. All methods are safe for concurrent use; the
// latency model serializes accesses through the single arm, as on the
// hardware.
type Disk struct {
	mu       sync.Mutex
	geom     Geometry
	sectors  []Sector
	arm      Addr // current arm position (last sector accessed + 1)
	armValid bool
	// onIO, if set, receives the modelled latency of each access, for a
	// caller to total or sleep. Set via SetIOHook.
	onIO func(millis float64, sequential bool)
	// failWrites makes the next n writes fail (failure injection).
	failWrites int
	// faultHook, if set, is consulted on every access. Set via SetFaultHook.
	faultHook FaultHook
	reads     int64
	writes    int64
}

// New returns a zeroed disk with the given geometry.
func New(geom Geometry) *Disk {
	if geom.Sectors <= 0 {
		geom.Sectors = 1
	}
	if geom.SectorsPerTrack <= 0 {
		geom.SectorsPerTrack = 30
	}
	return &Disk{
		geom:    geom,
		sectors: make([]Sector, geom.Sectors),
	}
}

// Geometry returns the disk's latency model.
func (d *Disk) Geometry() Geometry {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.geom
}

// SetIOHook installs fn to be called with the modelled latency of each
// access. fn must not call back into the disk.
func (d *Disk) SetIOHook(fn func(millis float64, sequential bool)) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.onIO = fn
}

// SetFaultHook installs (or, with nil, removes) the per-access fault hook.
// Unlike FailNextWrites — a one-shot test convenience that always takes
// priority — the hook sees every read and write and can fail, tear, or
// pass each one.
func (d *Disk) SetFaultHook(fn FaultHook) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.faultHook = fn
}

// FailNextWrites makes the next n Write/WriteHeader calls return
// ErrWriteFailed without modifying the disk. Used by recovery tests.
func (d *Disk) FailNextWrites(n int) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.failWrites = n
}

// Stats returns the cumulative number of sector reads and writes.
func (d *Disk) Stats() (reads, writes int64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.reads, d.writes
}

// charge computes and reports the latency of accessing addr, updating the
// arm position. Caller holds d.mu.
func (d *Disk) charge(addr Addr) {
	sequential := d.armValid && addr == d.arm
	var ms float64
	switch {
	case !sequential:
		ms = d.geom.SeekMillis + d.geom.TransferMillis
	case int64(addr)%d.geom.SectorsPerTrack == 0:
		ms = d.geom.HeadSwitchMillis + d.geom.TransferMillis
	default:
		ms = d.geom.TransferMillis
	}
	d.arm = addr + 1
	d.armValid = true
	if d.onIO != nil {
		d.onIO(ms, sequential)
	}
}

func (d *Disk) check(addr Addr) error {
	if addr < 0 || int64(addr) >= d.geom.Sectors {
		return fmt.Errorf("%w: %d (capacity %d)", ErrOutOfRange, addr, d.geom.Sectors)
	}
	return nil
}

// Read copies the sector at addr into buf (which must be SectorSize bytes)
// and returns the sector's header word.
func (d *Disk) Read(addr Addr, buf []byte) (header uint64, err error) {
	if len(buf) != SectorSize {
		return 0, ErrBadSize
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if err := d.check(addr); err != nil {
		return 0, err
	}
	if d.faultHook != nil && d.faultHook(false, addr) != FaultNone {
		return 0, fmt.Errorf("%w: sector %d", ErrReadFailed, addr)
	}
	d.charge(addr)
	d.reads++
	copy(buf, d.sectors[addr].Data[:])
	return d.sectors[addr].Header, nil
}

// ReadHeader returns just the header word of the sector at addr, without a
// data transfer charge beyond the access itself. The Recovery Manager uses
// this during operation-logging crash recovery (§3.2.1).
func (d *Disk) ReadHeader(addr Addr) (uint64, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if err := d.check(addr); err != nil {
		return 0, err
	}
	if d.faultHook != nil && d.faultHook(false, addr) != FaultNone {
		return 0, fmt.Errorf("%w: sector %d", ErrReadFailed, addr)
	}
	d.charge(addr)
	d.reads++
	return d.sectors[addr].Header, nil
}

// Write stores buf (exactly one sector) and the header word at addr. The
// header is written atomically with the data, as the modified Perq
// microcode guaranteed for TABS (§3.2.1).
func (d *Disk) Write(addr Addr, buf []byte, header uint64) error {
	if len(buf) != SectorSize {
		return ErrBadSize
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if err := d.check(addr); err != nil {
		return err
	}
	if d.failWrites > 0 {
		d.failWrites--
		return ErrWriteFailed
	}
	if d.faultHook != nil {
		switch d.faultHook(true, addr) {
		case FaultError:
			return fmt.Errorf("%w: sector %d", ErrWriteFailed, addr)
		case FaultTorn:
			// Half the data lands; the header word — written last by the
			// microcode — keeps its old value, so the sector self-describes
			// as stale.
			d.charge(addr)
			d.writes++
			copy(d.sectors[addr].Data[:TornBytes], buf[:TornBytes])
			return fmt.Errorf("%w: sector %d torn after %d bytes", ErrWriteFailed, addr, TornBytes)
		}
	}
	d.charge(addr)
	d.writes++
	copy(d.sectors[addr].Data[:], buf)
	d.sectors[addr].Header = header
	return nil
}

// Snapshot returns a deep copy of the disk contents (the image Save
// persists, and tests that copy a disk).
func (d *Disk) Snapshot() []Sector {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make([]Sector, len(d.sectors))
	copy(out, d.sectors)
	return out
}

// Restore replaces the disk contents from a snapshot taken with Snapshot.
func (d *Disk) Restore(snap []Sector) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if int64(len(snap)) != d.geom.Sectors {
		return fmt.Errorf("disk: snapshot has %d sectors, disk has %d", len(snap), d.geom.Sectors)
	}
	copy(d.sectors, snap)
	return nil
}
