#!/usr/bin/env sh
# Declared dependencies must match used ones: for every package of the
# workspace (the facade, crates/*, shims/*), each `[dependencies]` name
# must be mentioned as a path (`name::`, `use name;`, `name as`)
# somewhere under the package's src/, and each `[dev-dependencies]`
# name under its src/, tests/, benches/ or examples/. A dependency only
# tests or examples use belongs in `[dev-dependencies]`; one nothing
# uses is deleted; so is a shim no package declares. (Understands the
# `name = ...` form only, which is all the manifests here use.)
set -eu

cd "$(dirname "$0")/.."

unused=$(
    for manifest in Cargo.toml crates/*/Cargo.toml shims/*/Cargo.toml; do
        dir=$(dirname "$manifest")
        awk '
            /^\[/ { kind = ""; if ($0 == "[dependencies]") kind = "dep"; if ($0 == "[dev-dependencies]") kind = "dev" }
            kind != "" && /^[A-Za-z0-9_-]+[ \t]*=/ { sub(/[ \t]*=.*/, ""); print kind, $0 }
        ' "$manifest" | while read -r kind name; do
            roots="$dir/src"
            [ "$kind" = dev ] && roots="$roots $dir/tests $dir/benches $dir/examples"
            ident=$(printf '%s' "$name" | tr - _)
            # shellcheck disable=SC2086 # $roots is a list
            grep -rqsE --include='*.rs' "(^|[^[:alnum:]_])$ident(::|;| as )" $roots ||
                echo "$manifest: $name is declared but nothing under $roots uses it"
        done
    done
)
# An orphaned shim would still build through the `shims/*` member
# glob: every directory under shims/ must be the path of a
# `[workspace.dependencies]` entry, and every such entry must be
# declared (`name = { workspace = true }`) by at least one package.
orphans=$(
    shim_deps=$(sed -n 's|^\([A-Za-z0-9_-]*\) *= *{ *path *= *"\(shims/[^"]*\)".*|\1 \2|p' Cargo.toml)
    for dir in shims/*/; do
        echo "$shim_deps" | grep -q " ${dir%/}\$" ||
            echo "Cargo.toml: ${dir%/} is no [workspace.dependencies] path"
    done
    echo "$shim_deps" | while read -r name path; do
        grep -qsE "^$name *= *\{ *workspace *= *true" Cargo.toml crates/*/Cargo.toml shims/*/Cargo.toml ||
            echo "Cargo.toml: no package declares the workspace dependency $name ($path)"
    done
)
if [ -n "$unused$orphans" ]; then
    printf '%s\n' "$unused" "$orphans" | sed '/^$/d'
    exit 1
fi
echo "unused-deps: every declared dependency is used, every shim is declared"
