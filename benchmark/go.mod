module slfe/benchmark

go 1.24

require slfe v0.0.0

replace slfe => ../
