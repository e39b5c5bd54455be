package core

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"
)

// paperSizeCableDigests pins the SHA-256 of each operator's report JSON
// for the paper-size cable study at seed 7. The benchmark module pins
// the same values (perfbench/pins.go, "cable-1x/7"); they are copied
// here so the tier-1 suite holds the full-size study to them too.
var paperSizeCableDigests = map[string]string{
	"comcast": "9818b4190a5591646828730c8a1825c5e5586b0b5de0483defd851509fa3fa4a",
	"charter": "3fead3159ab0a4e25438456692699a9409beef612787fe2ec3c3ab331d8d1613",
}

// TestPaperSizeCableDigests runs the paper-size cable study on the
// resident archive at two worker counts and once through the windowed
// spill log, and requires every run to reproduce the pinned reports.
func TestPaperSizeCableDigests(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the paper-size cable study three times")
	}
	for _, c := range []struct {
		workers, window int
	}{{1, 0}, {4, 0}, {4, 4096}} {
		t.Run(fmt.Sprintf("workers=%d/window=%d", c.workers, c.window), func(t *testing.T) {
			opts := []Option{WithParallelism(c.workers)}
			if c.window > 0 {
				opts = append(opts, WithTraceWindow(c.window), WithSpillDir(t.TempDir()))
			}
			st := NewCableStudy(7, opts...)
			defer st.Close()
			for _, isp := range CableISPs {
				h := sha256.New()
				if err := st.Result(isp).WriteJSON(h, isp); err != nil {
					t.Fatalf("%s: WriteJSON: %v", isp, err)
				}
				if got := hex.EncodeToString(h.Sum(nil)); got != paperSizeCableDigests[isp] {
					t.Errorf("%s: report digest %s, pinned %s", isp, got, paperSizeCableDigests[isp])
				}
			}
		})
	}
}
