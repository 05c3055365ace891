package wal

import (
	"fmt"
	"math"
	"strconv"

	"repro/internal/api"
	"repro/internal/exec"
)

// appendObservation appends the JSON encoding of one ObservationRecord to
// dst and returns the extended slice — the allocation-free replacement for
// json.Marshal on the per-observe WAL append path. The output is
// byte-identical to encoding/json (same float formatting, same string
// escaping including HTML escapes and invalid-UTF-8 replacement), asserted
// exhaustively by TestAppendObservationMatchesMarshal, so records written by
// either encoder replay interchangeably.
//
// Like json.Marshal, it rejects NaN and ±Inf metric values with an error
// (and appends nothing useful to dst in that case — callers reset the
// buffer per record anyway).
func appendObservation(dst []byte, sql string, m exec.Metrics) ([]byte, error) {
	for _, v := range [...]float64{m.ElapsedSec, m.RecordsAccessed, m.RecordsUsed, m.DiskIOs, m.MessageCount, m.MessageBytes} {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			// Same failure json.Marshal reports, so walAppendErrors counts
			// the same events either way.
			return dst, fmt.Errorf("json: unsupported value: %s", strconv.FormatFloat(v, 'g', -1, 64))
		}
	}
	dst = append(dst, `{"sql":`...)
	dst = api.AppendJSONString(dst, sql)
	dst = append(dst, `,"metrics":{"ElapsedSec":`...)
	dst = api.AppendJSONFloat(dst, m.ElapsedSec)
	dst = append(dst, `,"RecordsAccessed":`...)
	dst = api.AppendJSONFloat(dst, m.RecordsAccessed)
	dst = append(dst, `,"RecordsUsed":`...)
	dst = api.AppendJSONFloat(dst, m.RecordsUsed)
	dst = append(dst, `,"DiskIOs":`...)
	dst = api.AppendJSONFloat(dst, m.DiskIOs)
	dst = append(dst, `,"MessageCount":`...)
	dst = api.AppendJSONFloat(dst, m.MessageCount)
	dst = append(dst, `,"MessageBytes":`...)
	dst = api.AppendJSONFloat(dst, m.MessageBytes)
	dst = append(dst, `}}`...)
	return dst, nil
}
