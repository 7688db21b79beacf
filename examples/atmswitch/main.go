// atmswitch: ATM cell switching with AAL5 segmentation and reassembly —
// the workload the first hardware queue managers were built for and one of
// the applications the paper lists ("ATM switching", "IP over ATM
// internetworking").
//
// AAL5 frames are cut into 48-byte cell payloads, switched per-VC through
// the queue manager (one flow per VPI/VCI), and reassembled at the output
// when the end-of-frame cell arrives. The example verifies every frame
// survives the trip byte-for-byte and prints per-VC statistics.
package main

import (
	"bytes"
	"fmt"
	"log"

	"npqm/internal/packet"
	"npqm/internal/queue"
	"npqm/internal/xrand"
)

const (
	numVCs = 64
	frames = 2000
)

func main() {
	qm, err := queue.New(queue.Config{NumQueues: numVCs, NumSegments: 1 << 15})
	if err != nil {
		log.Fatal(err)
	}
	rng := xrand.New(2005)

	// Generate AAL5 frames per VC, remember them for verification.
	sent := make(map[uint16][][]byte)
	var cellsIn int
	for i := 0; i < frames; i++ {
		vc := uint16(rng.Intn(numVCs))
		frame := make([]byte, 40+rng.Intn(1460))
		for j := range frame {
			frame[j] = byte(rng.Uint32())
		}
		sent[vc] = append(sent[vc], frame)

		// Segment into cells and enqueue each cell on the VC's flow queue.
		// A 48-byte cell payload fits one 64-byte segment; the AAL5
		// end-of-frame bit maps onto the queue engine's EOP marker.
		for _, cell := range packet.CellsForPacket(0, vc, frame) {
			cellsIn++
			if _, err := qm.Enqueue(queue.QueueID(vc), cell.Payload[:], cell.EndOfFrame()); err != nil {
				log.Fatalf("VC %d: %v", vc, err)
			}
		}
	}

	// Reassemble everything at the output side.
	var framesOut, cellsOut, corrupt int
	for vc := uint16(0); vc < numVCs; vc++ {
		for i := 0; ; i++ {
			raw, segs, err := qm.DequeuePacket(queue.QueueID(vc))
			if err != nil {
				break // VC drained
			}
			cellsOut += segs
			// AAL5 pads the last cell: trim to the original length.
			orig := sent[vc][i]
			if len(raw) < len(orig) || !bytes.Equal(raw[:len(orig)], orig) {
				corrupt++
			}
			framesOut++
		}
	}

	fmt.Printf("ATM switch: %d AAL5 frames over %d VCs\n", frames, numVCs)
	fmt.Printf("  cells in:     %d\n", cellsIn)
	fmt.Printf("  cells out:    %d\n", cellsOut)
	fmt.Printf("  frames out:   %d\n", framesOut)
	fmt.Printf("  corrupted:    %d\n", corrupt)
	fmt.Printf("  pool free:    %d/%d segments\n", qm.FreeSegments(), qm.NumSegments())
	if corrupt > 0 || framesOut != frames {
		log.Fatal("reassembly failed")
	}
	if err := qm.CheckInvariants(); err != nil {
		log.Fatal(err)
	}
	fmt.Println("  all frames reassembled byte-for-byte; invariants hold")
}
