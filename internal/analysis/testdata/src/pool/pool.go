// Package pool is a shape stub of the engine's internal/pool freelists for
// the hotalloc golden tests: only the Get*/Put* signatures matter to the
// analyzer.
package pool

func GetInts(n int) []int { return make([]int, n) }

func PutInts(s []int) { _ = s }

func GetBools(n int) []bool { return make([]bool, n) }

func PutBools(s []bool) { _ = s }

func GetVals[T any](n int) []T { return make([]T, n) }

func PutVals[T any](s []T) { _ = s }

func Vals[T any](n int) []T { return make([]T, n) }
