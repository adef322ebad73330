package mobileconfig

import (
	"testing"
	"testing/quick"
)

func TestQuickSchemaHashPermutationInvariant(t *testing.T) {
	err := quick.Check(func(fields []string, swap uint8) bool {
		if len(fields) < 2 {
			return true
		}
		shuffled := make([]string, len(fields))
		copy(shuffled, fields)
		i := int(swap) % len(shuffled)
		j := (int(swap) + 1) % len(shuffled)
		shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
		return SchemaHash(fields) == SchemaHash(shuffled)
	}, nil)
	if err != nil {
		t.Error(err)
	}
}

func TestQuickSchemaHashSensitive(t *testing.T) {
	err := quick.Check(func(a, b string) bool {
		if a == b {
			return true
		}
		return SchemaHash([]string{a}) != SchemaHash([]string{b})
	}, nil)
	if err != nil {
		t.Error(err)
	}
}

func TestQuickValueHashDeterministic(t *testing.T) {
	err := quick.Check(func(keys []string, nums []float64) bool {
		v := map[string]interface{}{}
		n := len(keys)
		if len(nums) < n {
			n = len(nums)
		}
		for i := 0; i < n; i++ {
			v[keys[i]] = nums[i]
		}
		h1, n1 := ValueHash(v)
		h2, n2 := ValueHash(v)
		return h1 == h2 && n1 == n2
	}, nil)
	if err != nil {
		t.Error(err)
	}
}

func TestQuickValueHashDetectsChange(t *testing.T) {
	err := quick.Check(func(key string, a, b float64) bool {
		if a == b || a != a || b != b { // equal or NaN
			return true
		}
		h1, _ := ValueHash(map[string]interface{}{key: a})
		h2, _ := ValueHash(map[string]interface{}{key: b})
		return h1 != h2
	}, nil)
	if err != nil {
		t.Error(err)
	}
}
