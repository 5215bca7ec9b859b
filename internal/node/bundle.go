package node

import (
	"fmt"

	"predctl/internal/deposet"
	"predctl/internal/store"
	"predctl/internal/wire"
)

// AssembleBundle verifies a sealed capture bundle and reassembles its
// final-epoch deposet — the disk-backed twin of the coordinator's
// commit-time assembly, consumable by `pctl replay`/`pctl trace` and
// any offline pass long after the run's process is gone. Segments are
// append-only, so a bundle can hold records from epochs a controlled
// re-execution voided; the manifest's sealed epoch filters them out, as
// the coordinator's own collect does.
func AssembleBundle(dir string) (*deposet.Deposet, *store.Manifest, error) {
	man, err := store.Verify(dir)
	if err != nil {
		return nil, nil, err
	}
	if man.N < 1 {
		return nil, nil, fmt.Errorf("node: bundle %s: manifest n=%d", dir, man.N)
	}
	var ops procOps
	if _, err := store.ReplayBundle(dir, func(rec wire.SegmentRecord, _ uint64, m wire.Msg) error {
		if rec.Epoch == man.Epoch {
			stageFrame(man.N, m, &ops, nil)
		}
		return nil
	}); err != nil {
		return nil, nil, err
	}
	opsByProc := make([][]wire.TraceOp, 2*man.N)
	ops.appendTo(opsByProc)
	d, err := assemble(man.N, opsByProc)
	if err != nil {
		return nil, nil, err
	}
	return d, man, nil
}
