package deposet

// StoredRows returns how many clock rows o stores and how many its
// storage has room for.
func (o *Order) StoredRows() (rows, capacity int) {
	n := len(o.lens)
	return len(o.rows) / n, cap(o.rows) / n
}
