package allarm

// ParseRecord exposes ReadRecords' canonical-form scanner, so tests can
// check that it accepts what NDJSONEmitter writes and agrees with
// json.Unmarshal wherever it accepts a line.
var ParseRecord = parseRecord
