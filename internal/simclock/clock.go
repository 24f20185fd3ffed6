// Package simclock names the primitive operations of the TABS performance
// methodology (paper §5.1) and holds their cost models.
//
// The paper evaluates TABS by decomposing each benchmark transaction into a
// weighted sum of primitive operations — data server calls, messages,
// datagrams, paged I/O, and stable-storage writes — whose individual costs
// were measured on a Perq T2 (Table 5-1) and projected for a tuned
// implementation (Table 5-5). Components count the primitives they execute
// (package stats); a count priced under one of these parameter sets
// (stats.Counts.Predict) regenerates the paper's predicted times without
// the original hardware.
package simclock

import "fmt"

// Primitive identifies one of the primitive operations of Table 5-1.
type Primitive int

// The primitive operations of paper Table 5-1, in table order.
const (
	DataServerCall Primitive = iota // local RPC from application to data server
	InterNodeCall                   // session-based RPC to a remote data server
	Datagram                        // transaction-management datagram
	SmallMsg                        // small contiguous Accent message (<500 bytes)
	LargeMsg                        // large contiguous Accent message (~1100 bytes)
	PointerMsg                      // copy-on-write pointer message
	RandomPageIO                    // demand-paged random read or read/write pair
	SequentialRead                  // demand-paged sequential read
	StableWrite                     // force of one log page to non-volatile storage
	numPrimitives
)

// NumPrimitives is the number of distinct primitive operations.
const NumPrimitives = int(numPrimitives)

var primitiveNames = [...]string{
	DataServerCall: "Data Server Call",
	InterNodeCall:  "Inter-Node Data Server Call",
	Datagram:       "Datagram",
	SmallMsg:       "Small Contiguous Message",
	LargeMsg:       "Large Contiguous Message",
	PointerMsg:     "Pointer Message",
	RandomPageIO:   "Random Access Paged I/O",
	SequentialRead: "Sequential Read",
	StableWrite:    "Stable Storage Write",
}

// String returns the paper's name for the primitive.
func (p Primitive) String() string {
	if p < 0 || int(p) >= len(primitiveNames) {
		return fmt.Sprintf("Primitive(%d)", int(p))
	}
	return primitiveNames[p]
}

// CostModel maps each primitive operation to its cost in milliseconds. The zero value charges nothing for every primitive.
type CostModel struct {
	// Times holds the cost of each primitive in milliseconds.
	Times [NumPrimitives]float64
	// Name labels the parameter set in reports ("Perq T2", "Achievable").
	Name string
}

// Millis returns the cost of p in milliseconds.
func (m *CostModel) Millis(p Primitive) float64 { return m.Times[p] }

// PerqT2 returns the measured primitive operation times of paper Table 5-1
// (milliseconds on a Perq T2 under Accent).
func PerqT2() *CostModel {
	return &CostModel{
		Name: "Perq T2 (Table 5-1)",
		Times: [NumPrimitives]float64{
			DataServerCall: 26.1,
			InterNodeCall:  89,
			Datagram:       25,
			SmallMsg:       3.0,
			LargeMsg:       4.4,
			PointerMsg:     18.3,
			RandomPageIO:   32,
			SequentialRead: 16,
			StableWrite:    79,
		},
	}
}

// Achievable returns the projected primitive operation times of paper Table
// 5-5 ("achievable by tuning software and adding disks").
func Achievable() *CostModel {
	return &CostModel{
		Name: "Achievable (Table 5-5)",
		Times: [NumPrimitives]float64{
			DataServerCall: 2.5,
			InterNodeCall:  9,
			Datagram:       2.0,
			SmallMsg:       1.0,
			LargeMsg:       1.25,
			PointerMsg:     15,
			RandomPageIO:   32,
			SequentialRead: 10,
			StableWrite:    32,
		},
	}
}
