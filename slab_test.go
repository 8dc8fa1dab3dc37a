package vlt

import "testing"

// TestSlabFreesEverySlot checks the uop slab's free discipline over
// every runnable workload × machine cell: once Run returns no slot is
// still live, and the slab's high-water mark never exceeded the
// machine's structural in-flight capacity (every queue, ROB and window
// full at once). A missed free fails here by name instead of growing
// memory silently.
func TestSlabFreesEverySlot(t *testing.T) {
	machineList := Machines()
	if testing.Short() {
		machineList = []Machine{MachineV4CMT, MachineCMT, MachineVLTScalar}
	}
	for _, m := range machineList {
		for _, w := range Workloads() {
			t.Run(string(m)+"/"+w, func(t *testing.T) {
				t.Parallel() // every cell simulates its own machine
				if _, err := resolveCell(w, m, Options{}); err != nil {
					t.Skipf("cell not runnable: %v", err)
				}
				machine := buildCellMachine(t, w, m)
				if _, err := machine.Run(); err != nil {
					t.Fatal(err)
				}
				slab := machine.Slab()
				if n := slab.InUse(); n != 0 {
					t.Errorf("%d slab slots still live after the run", n)
				}
				if peak, capacity := slab.Peak(), machine.SlotCapacity(); peak > capacity {
					t.Errorf("slab peak %d exceeds the structural capacity %d", peak, capacity)
				}
			})
		}
	}
}
