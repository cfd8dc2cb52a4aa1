package trace

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// Text serialization of traces. The format is line-oriented so traces can
// be generated by cmd/mstrace, inspected with standard tools, and replayed
// by cmd/msload:
//
//	# msweb-trace v1 <name>
//	<arrival> <class> <size> <demand> <cpuweight> <mempages> <script>
//
// Arrival and demand are seconds in decimal; class is "s" or "d". Files
// written while traces carried a cache parameter have an eighth integer
// column; Read checks that it is an integer and ignores it.

const traceMagic = "# msweb-trace v1"

// Write serializes the trace to w.
func Write(w io.Writer, t *Trace) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "%s %s\n", traceMagic, t.Name); err != nil {
		return err
	}
	for _, r := range t.Requests {
		class := "s"
		if r.Class == Dynamic {
			class = "d"
		}
		if _, err := fmt.Fprintf(bw, "%.9f %s %d %.9f %.4f %d %d\n",
			r.Arrival, class, r.Size, r.Demand, r.CPUWeight, r.MemPages, r.Script); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// Read parses a trace serialized by Write.
func Read(r io.Reader) (*Trace, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	if !sc.Scan() {
		if err := sc.Err(); err != nil {
			return nil, err
		}
		return nil, fmt.Errorf("trace: empty input")
	}
	header := sc.Text()
	if !strings.HasPrefix(header, traceMagic) {
		return nil, fmt.Errorf("trace: bad header %q", header)
	}
	name := strings.TrimSpace(strings.TrimPrefix(header, traceMagic))
	t := &Trace{Name: name}
	lineNo := 1
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 7 && len(fields) != 8 {
			return nil, fmt.Errorf("trace: line %d: %d fields, want 7 or 8", lineNo, len(fields))
		}
		var req Request
		var err error
		if req.Arrival, err = strconv.ParseFloat(fields[0], 64); err != nil {
			return nil, fmt.Errorf("trace: line %d: arrival: %v", lineNo, err)
		}
		switch fields[1] {
		case "s":
			req.Class = Static
		case "d":
			req.Class = Dynamic
		default:
			return nil, fmt.Errorf("trace: line %d: unknown class %q", lineNo, fields[1])
		}
		if req.Size, err = strconv.ParseInt(fields[2], 10, 64); err != nil {
			return nil, fmt.Errorf("trace: line %d: size: %v", lineNo, err)
		}
		if req.Demand, err = strconv.ParseFloat(fields[3], 64); err != nil {
			return nil, fmt.Errorf("trace: line %d: demand: %v", lineNo, err)
		}
		if req.CPUWeight, err = strconv.ParseFloat(fields[4], 64); err != nil {
			return nil, fmt.Errorf("trace: line %d: cpu weight: %v", lineNo, err)
		}
		var mem, script int64
		if mem, err = strconv.ParseInt(fields[5], 10, 32); err != nil {
			return nil, fmt.Errorf("trace: line %d: mem pages: %v", lineNo, err)
		}
		if script, err = strconv.ParseInt(fields[6], 10, 32); err != nil {
			return nil, fmt.Errorf("trace: line %d: script: %v", lineNo, err)
		}
		req.MemPages = int32(mem)
		req.Script = int(script)
		if len(fields) == 8 {
			if _, err = strconv.ParseInt(fields[7], 10, 64); err != nil {
				return nil, fmt.Errorf("trace: line %d: param: %v", lineNo, err)
			}
		}
		t.Requests = append(t.Requests, req)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if err := t.Validate(); err != nil {
		return nil, err
	}
	return t, nil
}
