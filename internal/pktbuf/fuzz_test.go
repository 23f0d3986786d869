package pktbuf

import (
	"bytes"
	"testing"
)

// FuzzPktbufPrependAppend drives a random op sequence against a Buf and a
// plain-slice reference model: the view contents must match after every op,
// and a copy taken with FromBytes must never be disturbed by later ops on
// the original. Ops decode from the fuzz input two bytes at a time: opcode
// and size argument.
func FuzzPktbufPrependAppend(f *testing.F) {
	f.Add([]byte{0, 8, 1, 4, 2, 2, 3, 1, 4, 0})
	f.Add([]byte{1, 200, 0, 70, 3, 100, 2, 100})
	f.Add([]byte{0, 255, 0, 255, 0, 255, 1, 255, 1, 255})
	f.Add([]byte{4, 0, 4, 1, 2, 1, 3, 1})
	f.Fuzz(func(t *testing.T, ops []byte) {
		b := New(16, 8)
		model := make([]byte, 0, 64)
		var fill byte
		var copies []*Buf
		var copyModels [][]byte
		for i := 0; i+1 < len(ops) && i < 64; i += 2 {
			op, n := ops[i]%5, int(ops[i+1])
			switch op {
			case 0: // append n bytes of a recognisable pattern
				region := b.Append(n)
				for j := range region {
					fill++
					region[j] = fill
					model = append(model, fill)
				}
			case 1: // prepend n bytes
				region := b.Prepend(n)
				pre := make([]byte, n)
				for j := n - 1; j >= 0; j-- {
					fill++
					region[j] = fill
					pre[j] = fill
				}
				model = append(pre, model...)
			case 2: // trim front
				k := 0
				if b.Len() > 0 {
					k = n % (b.Len() + 1)
				}
				b.TrimFront(k)
				model = model[k:]
			case 3: // trim tail
				k := b.Len()
				if k > 0 {
					k = k - n%(k+1)
				}
				b.Trim(k)
				model = model[:k]
			case 4: // copy a tail of the current state
				if len(copies) < 4 && b.Len() > 0 {
					j := n % b.Len()
					copies = append(copies, FromBytes(b.Bytes()[j:]))
					copyModels = append(copyModels, append([]byte(nil), model[j:]...))
				}
			}
			if !bytes.Equal(b.Bytes(), model) {
				t.Fatalf("op %d: view %x != model %x", i/2, b.Bytes(), model)
			}
		}
		for k, c := range copies {
			if !bytes.Equal(c.Bytes(), copyModels[k]) {
				t.Fatalf("copy %d corrupted: %x != %x", k, c.Bytes(), copyModels[k])
			}
			c.Put()
		}
		b.Put()
	})
}
