package trace

import (
	"bufio"
	"io"
	"strconv"
	"strings"
)

// WriteNDJSON writes the retained events as newline-delimited JSON, one
// object per event, in chronological order. The encoding is fully
// deterministic (fixed key order, integer timestamps), so two runs of the
// same seed produce byte-identical exports.
func (l *Log) WriteNDJSON(w io.Writer) error {
	return WriteNDJSON(w, l.Events(""))
}

// kindJSON holds every kind name as a quoted JSON string, kind order.
var kindJSON = func() (q [numKinds]string) {
	for k, name := range kindNames {
		q[k] = strconv.Quote(name)
	}
	return q
}()

// WriteNDJSON writes an event slice as newline-delimited JSON. Each line is
// appended into one reused buffer, the detail text rendered straight into
// it, so the export allocates nothing per event; the underlying writer sees
// large chunks, not one syscall-sized write per event.
func WriteNDJSON(w io.Writer, events []Event) error {
	bw := bufio.NewWriterSize(w, 1<<16)
	var line []byte
	for i := range events {
		e := &events[i]
		line = append(line[:0], `{"at":`...)
		line = strconv.AppendInt(line, int64(e.At), 10)
		line = append(line, `,"node":`...)
		line = strconv.AppendQuote(line, e.Node)
		line = append(line, `,"kind":`...)
		if int(e.Kind) < len(kindJSON) {
			line = append(line, kindJSON[e.Kind]...)
		} else {
			line = strconv.AppendQuote(line, e.Kind.String())
		}
		line = append(line, `,"id":`...)
		line = strconv.AppendUint(line, e.ID, 10)
		line = append(line, `,"dur":`...)
		line = strconv.AppendInt(line, int64(e.Dur), 10)
		line = append(line, `,"detail":`...)
		if e.hasText() {
			line = strconv.AppendQuote(line, e.text)
		} else {
			line = append(e.appendDetail(append(line, '"')), '"')
		}
		line = append(line, '}', '\n')
		if _, err := bw.Write(line); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// WriteCSV writes an event slice as CSV with a header row, encoded and
// buffered like WriteNDJSON.
func WriteCSV(w io.Writer, events []Event) error {
	bw := bufio.NewWriterSize(w, 1<<16)
	if _, err := io.WriteString(bw, "at_ns,node,kind,id,dur_ns,detail\n"); err != nil {
		return err
	}
	var line []byte
	for i := range events {
		e := &events[i]
		line = strconv.AppendInt(line[:0], int64(e.At), 10)
		line = appendCSVField(append(line, ','), e.Node)
		line = appendCSVField(append(line, ','), e.Kind.String())
		line = strconv.AppendUint(append(line, ','), e.ID, 10)
		line = strconv.AppendInt(append(line, ','), int64(e.Dur), 10)
		line = append(line, ',')
		if e.hasText() {
			line = appendCSVField(line, e.text)
		} else {
			line = e.appendDetail(line)
		}
		line = append(line, '\n')
		if _, err := bw.Write(line); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// appendCSVField appends a value, quoted when it contains CSV
// metacharacters (RFC 4180: wrap in double quotes, double any embedded
// quotes).
func appendCSVField(b []byte, s string) []byte {
	if !strings.ContainsAny(s, ",\"\n\r") {
		return append(b, s...)
	}
	b = append(b, '"')
	for i := 0; i < len(s); i++ {
		if s[i] == '"' {
			b = append(b, '"')
		}
		b = append(b, s[i])
	}
	return append(b, '"')
}
