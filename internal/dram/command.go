package dram

// CommandKind enumerates DRAM commands the controller can issue.
type CommandKind uint8

const (
	// CmdActivate opens a row into the bank's row buffer.
	CmdActivate CommandKind = iota
	// CmdRead bursts one cache block from the open row.
	CmdRead
	// CmdWrite bursts one cache block into the open row.
	CmdWrite
	// CmdPrecharge closes the open row.
	CmdPrecharge
	// CmdRefresh refreshes one rank (all banks must be precharged).
	CmdRefresh
	// CmdMigrate performs a DAS-DRAM in-bank row migration/swap step,
	// occupying the bank for the configured migration latency.
	CmdMigrate
)

// numKinds is the number of command kinds.
const numKinds = int(CmdMigrate) + 1

// String returns the conventional mnemonic.
func (k CommandKind) String() string {
	switch k {
	case CmdActivate:
		return "ACT"
	case CmdRead:
		return "RD"
	case CmdWrite:
		return "WR"
	case CmdPrecharge:
		return "PRE"
	case CmdRefresh:
		return "REF"
	case CmdMigrate:
		return "MIG"
	default:
		return "UNKNOWN"
	}
}

// RowClass distinguishes the two subarray speed grades of an asymmetric
// device. Homogeneous devices use a single class everywhere.
type RowClass uint8

const (
	// RowSlow is a commodity long-bitline row.
	RowSlow RowClass = iota
	// RowFast is a short-bitline fast-subarray row.
	RowFast
)

// String labels the class.
func (c RowClass) String() string {
	if c == RowFast {
		return "fast"
	}
	return "slow"
}
