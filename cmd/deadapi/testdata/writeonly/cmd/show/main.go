package main

import (
	"fmt"

	"configerator/internal/comp"
)

func main() { fmt.Println(comp.HistRead) }
