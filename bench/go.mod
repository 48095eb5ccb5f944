module spice/bench

go 1.24

require spice v0.0.0

replace spice => ../
